/* Compiled kernel backend: the per-access loops of the cache and MSHR
 * hot paths, the per-instruction draws of synthetic generation, and the
 * in-RAM trace index build.
 *
 * Each loop runs the per-access reference semantics of its Python
 * counterpart directly (one linear scan per access over at most
 * `assoc` cache slots or `n_entries` MSHR entries), so it is
 * bit-identical to the scalar backend by construction.  The generation
 * loops draw from the caller's own numpy bit generators, passed as
 * their `bit_generator.capsule` (`numpy/random/bitgen.h`) with the
 * generator's lock held: each double is the `next_double` that
 * `Generator.random` would have returned, so the traces equal the
 * numpy generator's, the reference under `scalar`.
 *
 * Exported functions (arrays are contiguous and prepared by the Python
 * wrappers in `repro.kernels.native`):
 *
 *   warm_lru(sets, lines, mask, assoc, want_info)
 *       -> (hits, hit_mask|None, occupancy_before|None)
 *   warm_hierarchy(l1_sets, llc_sets, lines,
 *                  l1_mask, l1_assoc, llc_mask, llc_assoc)
 *       -> (l1_hits, llc_hits)
 *   clear_sets(sets) -> None
 *   mshr_walk(slot_lines, slot_deadlines, occupied, lines, positions,
 *             allocate, window)
 *       -> (hit_mask, occupied, hits, allocations, failures)
 *   stack_from_prev(prev) -> stack distances (int64, -1 for cold)
 *   draw_kinds(kind_capsule, branch_capsule, n, mem, store, branch,
 *              mispredict, offset)
 *       -> (kind, mem_instr, mem_store, branch_instr, branch_mispred)
 *   count_below(capsule, n, threshold) -> number of draws below it
 *   mixture_choice(capsule, cdf, n, want_choices)
 *       -> (choices int32|None, per-component counts)
 *   mixture_scatter(choices, parts, pc_base) -> (lines, pcs)
 *   build_index(lines, page_shift)
 *       -> ((positions, keys, starts, successors),
 *           (positions, keys, starts, ranks))
 *
 * `draw_kinds` is one chunk of a phase: a double per instruction
 * classifies it (LOAD/STORE below `mem`, STORE below `store`, else
 * BRANCH below `branch`, else ALU), then a double per branch from the
 * second generator decides its mispredict bit.  `mixture_choice` is
 * Generator.choice(k, p) over that choice's own cdf; `mixture_scatter`
 * interleaves the components' draws back into choice order.
 *
 * `build_index` groups the access positions by line and by page
 * (`line >> page_shift`) without a sort of the accesses: it counts the
 * distinct lines in a hash table, sorts only those, derives the pages
 * from the sorted lines, and places every access in one pass in
 * position order.  Besides each granularity's grouped tables it writes
 * the one per-access table that granularity's queries read: each
 * access's next same-line position (-1 if none) and its rank among its
 * page's accesses.  Its tables equal `vff.index`'s bounded builder's.
 *
 * `sets` is the live list-of-lists representation of SetAssocCache
 * (LRU at index 0).  The warm kernels decode it into a flat slot
 * array, run, and write each touched set back as a *new* list: they
 * never mutate a set list, so a list of set references is an exact
 * snapshot (the classifier's MSHR-break rollback relies on it).
 * `clear_sets` is the one kernel that empties the lists in place: a
 * flush keeps every set's list object.
 *
 * `mshr_walk` runs MSHRFile.lookup for each access of a run, then
 * MSHRFile.allocate on a miss where `allocate` is set; the file's
 * outstanding entries come in and go out as slot arrays in insertion
 * order.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/random/bitgen.h>

#include <stdlib.h>
#include <string.h>

/* -- list-of-lists <-> flat slot array -------------------------------- */

static int
load_sets(PyObject *sets, npy_int64 *slots, npy_intp *occ,
          npy_intp n_sets, npy_intp assoc)
{
    npy_intp s, j, m;

    for (s = 0; s < n_sets; s++) {
        PyObject *entries = PyList_GET_ITEM(sets, s);
        if (!PyList_Check(entries)) {
            PyErr_SetString(PyExc_TypeError,
                            "cache sets must be lists of lines");
            return -1;
        }
        m = PyList_GET_SIZE(entries);
        if (m > assoc) {
            PyErr_SetString(PyExc_ValueError,
                            "set holds more lines than the associativity");
            return -1;
        }
        occ[s] = m;
        for (j = 0; j < m; j++) {
            npy_int64 line = PyLong_AsLongLong(PyList_GET_ITEM(entries, j));
            if (line == -1 && PyErr_Occurred())
                return -1;
            slots[s * assoc + j] = line;
        }
    }
    return 0;
}

static int
store_sets(PyObject *sets, const npy_int64 *slots, const npy_intp *occ,
           const unsigned char *dirty, npy_intp n_sets, npy_intp assoc)
{
    npy_intp s, j;

    for (s = 0; s < n_sets; s++) {
        PyObject *entries;

        if (!dirty[s])
            continue;
        entries = PyList_New(occ[s]);
        if (entries == NULL)
            return -1;
        for (j = 0; j < occ[s]; j++) {
            PyObject *item = PyLong_FromLongLong(slots[s * assoc + j]);
            if (item == NULL) {
                Py_DECREF(entries);
                return -1;
            }
            PyList_SET_ITEM(entries, j, item);
        }
        if (PyList_SetItem(sets, s, entries) < 0)
            return -1;
    }
    return 0;
}

/* One LRU access against a flat slot array.  Returns 1 on hit. */
static inline int
lru_access(npy_int64 *base, npy_intp *occ, npy_intp assoc, npy_int64 line)
{
    npy_intp m = *occ;
    npy_intp j;

    for (j = 0; j < m; j++) {
        if (base[j] == line) {
            for (; j < m - 1; j++)
                base[j] = base[j + 1];
            base[m - 1] = line;
            return 1;
        }
    }
    if (m >= assoc) {
        for (j = 0; j < m - 1; j++)
            base[j] = base[j + 1];
        base[m - 1] = line;
    } else {
        base[m] = line;
        *occ = m + 1;
    }
    return 0;
}

/* -- warm_lru ---------------------------------------------------------- */

static PyObject *
warm_lru(PyObject *self, PyObject *args)
{
    PyObject *sets;
    PyArrayObject *lines_arr;
    long long mask_ll, assoc_ll;
    int want_info;
    npy_intp n_sets, assoc, n, i;
    npy_int64 mask;
    npy_int64 *slots = NULL, *lines, *occ_out = NULL;
    npy_intp *occ = NULL;
    unsigned char *dirty = NULL, *mask_out = NULL;
    PyArrayObject *hit_mask = NULL, *occupancy = NULL;
    long long hits = 0;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "O!O!LLp", &PyList_Type, &sets,
                          &PyArray_Type, &lines_arr,
                          &mask_ll, &assoc_ll, &want_info))
        return NULL;
    n_sets = PyList_GET_SIZE(sets);
    mask = (npy_int64)mask_ll;
    assoc = (npy_intp)assoc_ll;
    if (assoc <= 0 || n_sets != (npy_intp)(mask + 1)) {
        PyErr_SetString(PyExc_ValueError,
                        "set count must equal mask + 1 with assoc > 0");
        return NULL;
    }
    if (PyArray_TYPE(lines_arr) != NPY_INT64
            || !PyArray_IS_C_CONTIGUOUS(lines_arr)
            || PyArray_NDIM(lines_arr) != 1) {
        PyErr_SetString(PyExc_TypeError,
                        "lines must be a contiguous 1-d int64 array");
        return NULL;
    }
    n = PyArray_DIM(lines_arr, 0);
    lines = (npy_int64 *)PyArray_DATA(lines_arr);

    slots = malloc(sizeof(npy_int64) * (size_t)(n_sets * assoc));
    occ = calloc((size_t)n_sets, sizeof(npy_intp));
    dirty = calloc((size_t)n_sets, 1);
    if (slots == NULL || occ == NULL || dirty == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (load_sets(sets, slots, occ, n_sets, assoc) < 0)
        goto done;

    if (want_info) {
        npy_intp dims[1] = {n};
        hit_mask = (PyArrayObject *)PyArray_ZEROS(1, dims, NPY_BOOL, 0);
        occupancy = (PyArrayObject *)PyArray_ZEROS(1, dims, NPY_INT64, 0);
        if (hit_mask == NULL || occupancy == NULL)
            goto done;
        mask_out = (unsigned char *)PyArray_DATA(hit_mask);
        occ_out = (npy_int64 *)PyArray_DATA(occupancy);
    }

    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n; i++) {
        npy_int64 line = lines[i];
        npy_intp s = (npy_intp)(line & mask);
        int hit;

        if (want_info)
            occ_out[i] = (npy_int64)occ[s];
        hit = lru_access(slots + s * assoc, &occ[s], assoc, line);
        dirty[s] = 1;
        if (hit) {
            hits++;
            if (want_info)
                mask_out[i] = 1;
        }
    }
    Py_END_ALLOW_THREADS

    if (store_sets(sets, slots, occ, dirty, n_sets, assoc) < 0)
        goto done;

    if (want_info)
        result = Py_BuildValue("(LOO)", hits, hit_mask, occupancy);
    else
        result = Py_BuildValue("(LOO)", hits, Py_None, Py_None);

done:
    free(slots);
    free(occ);
    free(dirty);
    Py_XDECREF(hit_mask);
    Py_XDECREF(occupancy);
    return result;
}

/* -- warm_hierarchy ---------------------------------------------------- */

static PyObject *
warm_hierarchy(PyObject *self, PyObject *args)
{
    PyObject *l1_sets, *llc_sets;
    PyArrayObject *lines_arr;
    long long l1_mask_ll, l1_assoc_ll, llc_mask_ll, llc_assoc_ll;
    npy_intp l1_n_sets, llc_n_sets, l1_assoc, llc_assoc, n, i;
    npy_int64 l1_mask, llc_mask;
    npy_int64 *l1_slots = NULL, *llc_slots = NULL, *lines;
    npy_intp *l1_occ = NULL, *llc_occ = NULL;
    unsigned char *l1_dirty = NULL, *llc_dirty = NULL;
    long long l1_hits = 0, llc_hits = 0;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "O!O!O!LLLL",
                          &PyList_Type, &l1_sets,
                          &PyList_Type, &llc_sets,
                          &PyArray_Type, &lines_arr,
                          &l1_mask_ll, &l1_assoc_ll,
                          &llc_mask_ll, &llc_assoc_ll))
        return NULL;
    l1_n_sets = PyList_GET_SIZE(l1_sets);
    llc_n_sets = PyList_GET_SIZE(llc_sets);
    l1_mask = (npy_int64)l1_mask_ll;
    llc_mask = (npy_int64)llc_mask_ll;
    l1_assoc = (npy_intp)l1_assoc_ll;
    llc_assoc = (npy_intp)llc_assoc_ll;
    if (l1_assoc <= 0 || llc_assoc <= 0
            || l1_n_sets != (npy_intp)(l1_mask + 1)
            || llc_n_sets != (npy_intp)(llc_mask + 1)) {
        PyErr_SetString(PyExc_ValueError,
                        "set count must equal mask + 1 with assoc > 0");
        return NULL;
    }
    if (PyArray_TYPE(lines_arr) != NPY_INT64
            || !PyArray_IS_C_CONTIGUOUS(lines_arr)
            || PyArray_NDIM(lines_arr) != 1) {
        PyErr_SetString(PyExc_TypeError,
                        "lines must be a contiguous 1-d int64 array");
        return NULL;
    }
    n = PyArray_DIM(lines_arr, 0);
    lines = (npy_int64 *)PyArray_DATA(lines_arr);

    l1_slots = malloc(sizeof(npy_int64) * (size_t)(l1_n_sets * l1_assoc));
    llc_slots = malloc(sizeof(npy_int64) * (size_t)(llc_n_sets * llc_assoc));
    l1_occ = calloc((size_t)l1_n_sets, sizeof(npy_intp));
    llc_occ = calloc((size_t)llc_n_sets, sizeof(npy_intp));
    l1_dirty = calloc((size_t)l1_n_sets, 1);
    llc_dirty = calloc((size_t)llc_n_sets, 1);
    if (l1_slots == NULL || llc_slots == NULL || l1_occ == NULL
            || llc_occ == NULL || l1_dirty == NULL || llc_dirty == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (load_sets(l1_sets, l1_slots, l1_occ, l1_n_sets, l1_assoc) < 0)
        goto done;
    if (load_sets(llc_sets, llc_slots, llc_occ, llc_n_sets, llc_assoc) < 0)
        goto done;

    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n; i++) {
        npy_int64 line = lines[i];
        npy_intp s1 = (npy_intp)(line & l1_mask);
        npy_intp s2;

        l1_dirty[s1] = 1;
        if (lru_access(l1_slots + s1 * l1_assoc, &l1_occ[s1],
                       l1_assoc, line)) {
            l1_hits++;
            continue;
        }
        /* L1 miss: the fill happened inside lru_access; the LLC sees
         * exactly the L1-miss substream, as in the interleaved loop. */
        s2 = (npy_intp)(line & llc_mask);
        llc_dirty[s2] = 1;
        if (lru_access(llc_slots + s2 * llc_assoc, &llc_occ[s2],
                       llc_assoc, line))
            llc_hits++;
    }
    Py_END_ALLOW_THREADS

    if (store_sets(l1_sets, l1_slots, l1_occ, l1_dirty,
                   l1_n_sets, l1_assoc) < 0)
        goto done;
    if (store_sets(llc_sets, llc_slots, llc_occ, llc_dirty,
                   llc_n_sets, llc_assoc) < 0)
        goto done;

    result = Py_BuildValue("(LL)", l1_hits, llc_hits);

done:
    free(l1_slots);
    free(llc_slots);
    free(l1_occ);
    free(llc_occ);
    free(l1_dirty);
    free(llc_dirty);
    return result;
}

/* -- clear_sets --------------------------------------------------------- */

static PyObject *
clear_sets(PyObject *self, PyObject *args)
{
    PyObject *sets;
    npy_intp n_sets, s;

    if (!PyArg_ParseTuple(args, "O!", &PyList_Type, &sets))
        return NULL;
    n_sets = PyList_GET_SIZE(sets);
    for (s = 0; s < n_sets; s++) {
        PyObject *entries = PyList_GET_ITEM(sets, s);
        if (!PyList_Check(entries)) {
            PyErr_SetString(PyExc_TypeError,
                            "cache sets must be lists of lines");
            return NULL;
        }
        if (PyList_GET_SIZE(entries) > 0
                && PyList_SetSlice(entries, 0, PyList_GET_SIZE(entries),
                                   NULL) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* -- mshr_walk ---------------------------------------------------------- */

/* 0 when `arr` is a contiguous 1-d array of `type`, else -1 with a
 * TypeError naming it. */
static int
check_vector(PyArrayObject *arr, int type, const char *name)
{
    PyArray_Descr *descr;

    if (PyArray_TYPE(arr) == type && PyArray_IS_C_CONTIGUOUS(arr)
            && PyArray_NDIM(arr) == 1)
        return 0;
    descr = PyArray_DescrFromType(type);
    PyErr_Format(PyExc_TypeError, "%s must be a contiguous 1-d %s array",
                 name, descr != NULL ? descr->typeobj->tp_name : "?");
    Py_XDECREF(descr);
    return -1;
}

static PyObject *
mshr_walk(PyObject *self, PyObject *args)
{
    PyArrayObject *slot_lines_arr, *slot_deadlines_arr;
    PyArrayObject *lines_arr, *positions_arr, *allocate_arr;
    PyArrayObject *hit_mask = NULL;
    long long occupied_ll, window_ll;
    npy_intp capacity, m, n, i, j, dims[1];
    npy_int64 *slot_lines, *slot_deadlines, *lines, *positions;
    npy_int64 window, next_expiry;
    const unsigned char *allocate;
    unsigned char *hits_out;
    long long hits = 0, allocations = 0, failures = 0;

    if (!PyArg_ParseTuple(args, "O!O!LO!O!O!L",
                          &PyArray_Type, &slot_lines_arr,
                          &PyArray_Type, &slot_deadlines_arr,
                          &occupied_ll,
                          &PyArray_Type, &lines_arr,
                          &PyArray_Type, &positions_arr,
                          &PyArray_Type, &allocate_arr,
                          &window_ll))
        return NULL;
    if (check_vector(slot_lines_arr, NPY_INT64, "slot_lines") < 0
            || check_vector(slot_deadlines_arr, NPY_INT64,
                            "slot_deadlines") < 0
            || check_vector(lines_arr, NPY_INT64, "lines") < 0
            || check_vector(positions_arr, NPY_INT64, "positions") < 0
            || check_vector(allocate_arr, NPY_BOOL, "allocate") < 0)
        return NULL;
    capacity = PyArray_DIM(slot_lines_arr, 0);
    n = PyArray_DIM(lines_arr, 0);
    if (PyArray_DIM(slot_deadlines_arr, 0) != capacity
            || occupied_ll < 0 || occupied_ll > capacity
            || PyArray_DIM(positions_arr, 0) != n
            || PyArray_DIM(allocate_arr, 0) != n || window_ll <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "mshr_walk: mismatched lengths, occupancy beyond "
                        "the slots, or a non-positive window");
        return NULL;
    }
    slot_lines = (npy_int64 *)PyArray_DATA(slot_lines_arr);
    slot_deadlines = (npy_int64 *)PyArray_DATA(slot_deadlines_arr);
    lines = (npy_int64 *)PyArray_DATA(lines_arr);
    positions = (npy_int64 *)PyArray_DATA(positions_arr);
    allocate = (const unsigned char *)PyArray_DATA(allocate_arr);
    m = (npy_intp)occupied_ll;
    window = (npy_int64)window_ll;

    dims[0] = n;
    hit_mask = (PyArrayObject *)PyArray_ZEROS(1, dims, NPY_BOOL, 0);
    if (hit_mask == NULL)
        return NULL;
    hits_out = (unsigned char *)PyArray_DATA(hit_mask);

    Py_BEGIN_ALLOW_THREADS
    /* The earliest outstanding deadline: nothing expires before it. */
    next_expiry = NPY_MAX_INT64;
    for (j = 0; j < m; j++)
        if (slot_deadlines[j] < next_expiry)
            next_expiry = slot_deadlines[j];
    for (i = 0; i < n; i++) {
        npy_int64 line = lines[i];
        npy_int64 now = positions[i];

        if (now >= next_expiry) {
            /* Drop every entry due by now, keeping insertion order. */
            npy_intp kept = 0;

            next_expiry = NPY_MAX_INT64;
            for (j = 0; j < m; j++) {
                if (slot_deadlines[j] > now) {
                    slot_lines[kept] = slot_lines[j];
                    slot_deadlines[kept] = slot_deadlines[j];
                    if (slot_deadlines[j] < next_expiry)
                        next_expiry = slot_deadlines[j];
                    kept++;
                }
            }
            m = kept;
        }
        for (j = 0; j < m && slot_lines[j] != line; j++)
            ;
        if (j < m) {
            hits++;
            hits_out[i] = 1;
            continue;
        }
        if (!allocate[i])
            continue;
        if (m >= capacity) {
            failures++;
            continue;
        }
        slot_lines[m] = line;
        slot_deadlines[m] = now + window;
        if (now + window < next_expiry)
            next_expiry = now + window;
        m++;
        allocations++;
    }
    Py_END_ALLOW_THREADS

    return Py_BuildValue("(NnLLL)", hit_mask, m, hits, allocations,
                         failures);
}

/* -- stack_from_prev (Bennett-Kruskal over a Fenwick tree) ------------- */

static PyObject *
stack_from_prev(PyObject *self, PyObject *args)
{
    PyArrayObject *prev_arr;
    PyArrayObject *stack_arr = NULL;
    npy_int64 *prev, *stack;
    npy_int64 *tree = NULL;
    npy_intp n, i, dims[1];

    if (!PyArg_ParseTuple(args, "O!", &PyArray_Type, &prev_arr))
        return NULL;
    if (PyArray_TYPE(prev_arr) != NPY_INT64
            || !PyArray_IS_C_CONTIGUOUS(prev_arr)
            || PyArray_NDIM(prev_arr) != 1) {
        PyErr_SetString(PyExc_TypeError,
                        "prev must be a contiguous 1-d int64 array");
        return NULL;
    }
    n = PyArray_DIM(prev_arr, 0);
    prev = (npy_int64 *)PyArray_DATA(prev_arr);

    dims[0] = n;
    stack_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    if (stack_arr == NULL)
        return NULL;
    stack = (npy_int64 *)PyArray_DATA(stack_arr);
    tree = calloc((size_t)(n + 2), sizeof(npy_int64));
    if (tree == NULL) {
        Py_DECREF(stack_arr);
        return PyErr_NoMemory();
    }

    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n; i++) {
        npy_int64 p = prev[i];
        npy_intp k;

        if (p >= 0) {
            /* Marked positions in 1-based (p + 1, i] are the most-recent
             * positions of distinct lines touched since p. */
            npy_int64 total = 0;
            for (k = i; k > 0; k -= k & (-k))
                total += tree[k];
            for (k = (npy_intp)p + 1; k > 0; k -= k & (-k))
                total -= tree[k];
            stack[i] = total;
            for (k = (npy_intp)p + 1; k <= n; k += k & (-k))
                tree[k] -= 1;
        } else {
            stack[i] = -1;
        }
        for (k = i + 1; k <= n; k += k & (-k))
            tree[k] += 1;
    }
    Py_END_ALLOW_THREADS

    free(tree);
    return (PyObject *)stack_arr;
}

/* -- synthetic trace generation ---------------------------------------- */

/* Instruction kind codes (repro.trace.record.Kind). */
#define KIND_LOAD 1
#define KIND_STORE 2
#define KIND_BRANCH 3
/* LOAD or STORE, tested without a jump: for ALU, k - 1 wraps around. */
#define IS_MEM_KIND(k) ((unsigned int)(k) - KIND_LOAD <= 1u)

/* The bit generator behind a numpy Generator's `bit_generator.capsule`;
 * the caller holds that generator's lock.  `next_double` is what
 * Generator.random draws each double with. */
static bitgen_t *
bitgen_of(PyObject *capsule)
{
    return (bitgen_t *)PyCapsule_GetPointer(capsule, "BitGenerator");
}

static PyObject *
draw_kinds(PyObject *self, PyObject *args)
{
    PyObject *kind_capsule, *branch_capsule;
    Py_ssize_t n;
    double mem_threshold, store_threshold, branch_threshold, mispredict;
    long long offset_ll;
    bitgen_t *kind_gen, *branch_gen;
    PyArrayObject *kind_arr, *mem_instr_arr = NULL, *mem_store_arr = NULL;
    PyArrayObject *branch_instr_arr = NULL, *branch_mispred_arr = NULL;
    unsigned char *kinds, *mem_store, *branch_mispred;
    npy_int64 *mem_instr, *branch_instr, offset;
    npy_intp i, j, b, stop, dims[1];
    npy_intp n_mem = 0, n_branch = 0, last_mem, last_branch;

    if (!PyArg_ParseTuple(args, "OOnddddL", &kind_capsule, &branch_capsule,
                          &n, &mem_threshold, &store_threshold,
                          &branch_threshold, &mispredict, &offset_ll))
        return NULL;
    kind_gen = bitgen_of(kind_capsule);
    branch_gen = bitgen_of(branch_capsule);
    if (kind_gen == NULL || branch_gen == NULL)
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "draw_kinds: negative length");
        return NULL;
    }
    offset = (npy_int64)offset_ll;
    dims[0] = n;
    kind_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_UINT8, 0);
    if (kind_arr == NULL)
        return NULL;
    kinds = (unsigned char *)PyArray_DATA(kind_arr);

    /* Pass 1: one double per instruction gives its kind.  Branchless;
     * a store counts only where the access is a memory one, so the
     * kinds and the counts below always agree. */
    Py_BEGIN_ALLOW_THREADS
    {
        double (*next_double)(void *) = kind_gen->next_double;
        void *state = kind_gen->state;

        for (i = 0; i < n; i++) {
            double u = next_double(state);
            npy_intp is_mem = u < mem_threshold;
            npy_intp is_store = is_mem & (u < store_threshold);
            npy_intp is_branch = (1 - is_mem) & (u < branch_threshold);

            kinds[i] = (unsigned char)(is_mem + is_store
                                       + KIND_BRANCH * is_branch);
            n_mem += is_mem;
            n_branch += is_branch;
        }
    }
    /* The last instruction of each view bounds its compaction below. */
    for (last_mem = n - 1; last_mem >= 0 && !IS_MEM_KIND(kinds[last_mem]);
         last_mem--)
        ;
    for (last_branch = n - 1;
         last_branch >= 0 && kinds[last_branch] != KIND_BRANCH;
         last_branch--)
        ;
    Py_END_ALLOW_THREADS

    dims[0] = n_mem;
    mem_instr_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    mem_store_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_BOOL, 0);
    dims[0] = n_branch;
    branch_instr_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    branch_mispred_arr = (PyArrayObject *)PyArray_EMPTY(1, dims,
                                                        NPY_BOOL, 0);
    if (mem_instr_arr == NULL || mem_store_arr == NULL
            || branch_instr_arr == NULL || branch_mispred_arr == NULL) {
        Py_DECREF(kind_arr);
        Py_XDECREF(mem_instr_arr);
        Py_XDECREF(mem_store_arr);
        Py_XDECREF(branch_instr_arr);
        Py_XDECREF(branch_mispred_arr);
        return NULL;
    }
    mem_instr = (npy_int64 *)PyArray_DATA(mem_instr_arr);
    mem_store = (unsigned char *)PyArray_DATA(mem_store_arr);
    branch_instr = (npy_int64 *)PyArray_DATA(branch_instr_arr);
    branch_mispred = (unsigned char *)PyArray_DATA(branch_mispred_arr);

    Py_BEGIN_ALLOW_THREADS
    /* Pass 2, no draws: compact the positions.  Every instruction
     * writes the next free slot and advances past it only when it is
     * of that view, so a view's writes stay in bounds up to its last
     * instruction; past the earlier of the two last ones, only the
     * other view is still written. */
    j = b = 0;
    stop = last_mem < last_branch ? last_mem : last_branch;
    for (i = 0; i <= stop; i++) {
        unsigned int k = kinds[i];

        mem_instr[j] = offset + i;
        mem_store[j] = k == KIND_STORE;
        j += IS_MEM_KIND(k);
        branch_instr[b] = offset + i;
        b += k == KIND_BRANCH;
    }
    for (; i <= last_mem; i++) {
        unsigned int k = kinds[i];

        mem_instr[j] = offset + i;
        mem_store[j] = k == KIND_STORE;
        j += IS_MEM_KIND(k);
    }
    for (; i <= last_branch; i++) {
        branch_instr[b] = offset + i;
        b += kinds[i] == KIND_BRANCH;
    }
    /* Pass 3: one double per branch, in branch order. */
    for (b = 0; b < n_branch; b++)
        branch_mispred[b] =
            branch_gen->next_double(branch_gen->state) < mispredict;
    Py_END_ALLOW_THREADS

    return Py_BuildValue("(NNNNN)", kind_arr, mem_instr_arr, mem_store_arr,
                         branch_instr_arr, branch_mispred_arr);
}

static PyObject *
count_below(PyObject *self, PyObject *args)
{
    PyObject *capsule;
    Py_ssize_t n, i, count = 0;
    double threshold;
    bitgen_t *gen;

    if (!PyArg_ParseTuple(args, "Ond", &capsule, &n, &threshold))
        return NULL;
    if ((gen = bitgen_of(capsule)) == NULL)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n; i++)
        count += gen->next_double(gen->state) < threshold;
    Py_END_ALLOW_THREADS
    return PyLong_FromSsize_t(count);
}

static PyObject *
mixture_choice(PyObject *self, PyObject *args)
{
    PyObject *capsule;
    PyArrayObject *cdf_arr, *counts_arr, *choice_arr = NULL;
    Py_ssize_t n;
    int want_choices;
    bitgen_t *gen;
    const double *cdf;
    npy_int64 *counts;
    npy_int32 *choices = NULL;
    npy_intp k, last, i, t, c, dims[1];

    if (!PyArg_ParseTuple(args, "OO!np", &capsule, &PyArray_Type, &cdf_arr,
                          &n, &want_choices))
        return NULL;
    if ((gen = bitgen_of(capsule)) == NULL)
        return NULL;
    if (check_vector(cdf_arr, NPY_FLOAT64, "cdf") < 0)
        return NULL;
    k = PyArray_DIM(cdf_arr, 0);
    cdf = (const double *)PyArray_DATA(cdf_arr);
    /* Every draw is below 1, so with a last entry of at least 1 each
     * choice names a component; NaN entries only lower the count. */
    if (k < 1 || k > NPY_MAX_INT32 || !(cdf[k - 1] >= 1.0) || n < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "mixture_choice: the cdf must be non-empty and end "
                        "at 1, and the length non-negative");
        return NULL;
    }
    last = k - 1;
    dims[0] = k;
    counts_arr = (PyArrayObject *)PyArray_ZEROS(1, dims, NPY_INT64, 0);
    if (counts_arr == NULL)
        return NULL;
    counts = (npy_int64 *)PyArray_DATA(counts_arr);
    if (want_choices) {
        dims[0] = n;
        choice_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT32, 0);
        if (choice_arr == NULL) {
            Py_DECREF(counts_arr);
            return NULL;
        }
        choices = (npy_int32 *)PyArray_DATA(choice_arr);
    }

    /* Generator.choice's searchsorted(cdf, u, 'right'): the number of
     * cdf entries at or below each draw. */
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n; i++) {
        double u = gen->next_double(gen->state);

        c = 0;
        for (t = 0; t < last; t++)
            c += cdf[t] <= u;
        counts[c]++;
        if (choices != NULL)
            choices[i] = (npy_int32)c;
    }
    Py_END_ALLOW_THREADS

    if (choice_arr == NULL)
        return Py_BuildValue("(ON)", Py_None, counts_arr);
    return Py_BuildValue("(NN)", choice_arr, counts_arr);
}

static PyObject *
mixture_scatter(PyObject *self, PyObject *args)
{
    PyArrayObject *choice_arr, *pc_base_arr;
    PyObject *parts, *result = NULL;
    PyArrayObject *lines_arr = NULL, *pcs_arr = NULL;
    const npy_int32 *choices;
    const npy_int64 *pc_base;
    const npy_int64 **line_src = NULL;
    const npy_int32 **pc_src = NULL;
    npy_intp *cursor = NULL, *length = NULL;
    npy_int64 *lines;
    npy_int32 *pcs;
    npy_intp n, k, i, c, dims[1];
    int bad = 0;

    if (!PyArg_ParseTuple(args, "O!O!O!", &PyArray_Type, &choice_arr,
                          &PyList_Type, &parts, &PyArray_Type, &pc_base_arr))
        return NULL;
    if (check_vector(choice_arr, NPY_INT32, "choices") < 0
            || check_vector(pc_base_arr, NPY_INT64, "pc_base") < 0)
        return NULL;
    n = PyArray_DIM(choice_arr, 0);
    k = PyList_GET_SIZE(parts);
    if (PyArray_DIM(pc_base_arr, 0) != k) {
        PyErr_SetString(PyExc_ValueError,
                        "one pc base per component required");
        return NULL;
    }
    choices = (const npy_int32 *)PyArray_DATA(choice_arr);
    pc_base = (const npy_int64 *)PyArray_DATA(pc_base_arr);
    line_src = calloc((size_t)k + 1, sizeof(*line_src));
    pc_src = calloc((size_t)k + 1, sizeof(*pc_src));
    cursor = calloc((size_t)k + 1, sizeof(*cursor));
    length = calloc((size_t)k + 1, sizeof(*length));
    if (line_src == NULL || pc_src == NULL || cursor == NULL
            || length == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* Each part is None (a component nothing chose) or the component's
     * (lines, pcs) arrays, in choice order. */
    for (c = 0; c < k; c++) {
        PyObject *part = PyList_GET_ITEM(parts, c);
        PyArrayObject *part_lines, *part_pcs;

        if (part == Py_None)
            continue;
        if (!PyTuple_Check(part) || PyTuple_GET_SIZE(part) != 2
                || !PyArray_Check(PyTuple_GET_ITEM(part, 0))
                || !PyArray_Check(PyTuple_GET_ITEM(part, 1))) {
            PyErr_SetString(PyExc_TypeError,
                            "each part must be None or (lines, pcs)");
            goto done;
        }
        part_lines = (PyArrayObject *)PyTuple_GET_ITEM(part, 0);
        part_pcs = (PyArrayObject *)PyTuple_GET_ITEM(part, 1);
        if (check_vector(part_lines, NPY_INT64, "part lines") < 0
                || check_vector(part_pcs, NPY_INT32, "part pcs") < 0)
            goto done;
        length[c] = PyArray_DIM(part_lines, 0);
        if (PyArray_DIM(part_pcs, 0) != length[c]) {
            PyErr_SetString(PyExc_ValueError,
                            "engine returned wrong-length arrays");
            goto done;
        }
        line_src[c] = (const npy_int64 *)PyArray_DATA(part_lines);
        pc_src[c] = (const npy_int32 *)PyArray_DATA(part_pcs);
    }
    dims[0] = n;
    lines_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    pcs_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT32, 0);
    if (lines_arr == NULL || pcs_arr == NULL)
        goto done;
    lines = (npy_int64 *)PyArray_DATA(lines_arr);
    pcs = (npy_int32 *)PyArray_DATA(pcs_arr);

    /* One cursor per component: access i takes its component's next
     * line and pc, as `lines[choice == c] = part_lines` does. */
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n; i++) {
        npy_intp at;

        c = choices[i];
        if ((npy_uintp)c >= (npy_uintp)k || cursor[c] >= length[c]) {
            bad = 1;
            break;
        }
        at = cursor[c]++;
        lines[i] = line_src[c][at];
        pcs[i] = (npy_int32)(pc_src[c][at] + pc_base[c]);
    }
    for (c = 0; c < k && !bad; c++)
        bad = cursor[c] != length[c];
    Py_END_ALLOW_THREADS
    if (bad) {
        PyErr_SetString(PyExc_ValueError,
                        "engine returned wrong-length arrays");
        goto done;
    }
    result = Py_BuildValue("(OO)", lines_arr, pcs_arr);

done:
    free(line_src);
    free(pc_src);
    free(cursor);
    free(length);
    Py_XDECREF(lines_arr);
    Py_XDECREF(pcs_arr);
    return result;
}

/* -- build_index (the in-RAM trace index) ------------------------------ */

/* Open-addressing table of distinct lines, linear probing, grown at
 * half load.  `vals[h]` is 0 for an empty slot; pass 1 stores each
 * line's access count there, and the sort replaces it with the line's
 * sorted slot plus one.  Nothing is ever deleted, so every slot on a
 * present line's probe path is occupied. */
typedef struct {
    npy_int64 *keys;
    npy_int64 *vals;
    npy_intp capacity;          /* a power of two */
    int shift;                  /* 64 - log2(capacity) */
    npy_intp size;
} line_table;

static int
line_table_init(line_table *t, npy_intp capacity)
{
    int bits = 0;

    while (((npy_intp)1 << bits) < capacity)
        bits++;
    t->capacity = (npy_intp)1 << bits;
    t->shift = 64 - bits;
    t->size = 0;
    t->keys = PyMem_RawMalloc(sizeof(npy_int64) * (size_t)t->capacity);
    t->vals = PyMem_RawCalloc((size_t)t->capacity, sizeof(npy_int64));
    return t->keys != NULL && t->vals != NULL ? 0 : -1;
}

static void
line_table_free(line_table *t)
{
    PyMem_RawFree(t->keys);
    PyMem_RawFree(t->vals);
    t->keys = t->vals = NULL;
}

/* The slot holding `line`, or the empty slot where it belongs. */
static inline npy_intp
line_table_find(const line_table *t, npy_int64 line)
{
    npy_intp mask = t->capacity - 1;
    /* Fibonacci hashing: the top bits of the product spread sequential
     * lines over the table. */
    npy_intp h = (npy_intp)(((npy_uint64)line * 0x9E3779B97F4A7C15ULL)
                            >> t->shift);

    while (t->vals[h] != 0 && t->keys[h] != line)
        h = (h + 1) & mask;
    return h;
}

/* Double the capacity, rehashing every line; -1 when out of memory. */
static int
line_table_grow(line_table *t)
{
    line_table bigger;
    npy_intp h, to;

    if (line_table_init(&bigger, t->capacity * 2) < 0) {
        line_table_free(&bigger);
        return -1;
    }
    for (h = 0; h < t->capacity; h++) {
        if (t->vals[h] == 0)
            continue;
        to = line_table_find(&bigger, t->keys[h]);
        bigger.keys[to] = t->keys[h];
        bigger.vals[to] = t->vals[h];
    }
    bigger.size = t->size;
    line_table_free(t);
    *t = bigger;
    return 0;
}

static int
compare_int64(const void *a, const void *b)
{
    npy_int64 x = *(const npy_int64 *)a, y = *(const npy_int64 *)b;

    return (x > y) - (x < y);
}

/* Pass-2 state of one distinct line, by sorted slot. */
typedef struct {
    npy_int64 cursor;           /* its next slot in the positions table */
    npy_int64 last;             /* its latest position so far, or -1 */
    npy_int64 page;             /* its page's sorted slot */
} line_state;

static PyObject *
build_index(PyObject *self, PyObject *args)
{
    PyArrayObject *lines_arr;
    int page_shift, failed = 0;
    npy_intp n, u, n_pages = 0, i, j, p, dims[1];
    const npy_int64 *lines;
    npy_int64 *line_pos, *line_keys, *line_starts, *successors;
    npy_int64 *page_pos, *page_keys, *page_starts, *page_ranks;
    npy_int64 *page_cursor = NULL;
    line_state *state = NULL;
    line_table table = {NULL, NULL, 0, 0, 0};
    PyArrayObject *out[8] = {NULL};
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "O!i", &PyArray_Type, &lines_arr,
                          &page_shift))
        return NULL;
    if (check_vector(lines_arr, NPY_INT64, "lines") < 0)
        return NULL;
    if (page_shift < 0 || page_shift > 63) {
        PyErr_SetString(PyExc_ValueError,
                        "build_index: page shift outside [0, 63]");
        return NULL;
    }
    n = PyArray_DIM(lines_arr, 0);
    lines = (const npy_int64 *)PyArray_DATA(lines_arr);
    if (line_table_init(&table, 8) < 0) {
        PyErr_NoMemory();
        goto done;
    }

    /* Pass 1: count every distinct line. */
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n; i++) {
        npy_intp h = line_table_find(&table, lines[i]);

        if (table.vals[h]++ != 0)
            continue;
        table.keys[h] = lines[i];
        if (2 * ++table.size > table.capacity
                && line_table_grow(&table) < 0) {
            failed = 1;
            break;
        }
    }
    Py_END_ALLOW_THREADS
    if (failed) {
        PyErr_NoMemory();
        goto done;
    }
    u = table.size;

    dims[0] = n;
    out[0] = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    out[3] = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    out[4] = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    out[7] = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    dims[0] = u;
    out[1] = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    dims[0] = u + 1;
    out[2] = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    state = PyMem_RawMalloc(sizeof(line_state) * (size_t)(u + 1));
    if (out[0] == NULL || out[1] == NULL || out[2] == NULL
            || out[3] == NULL || out[4] == NULL || out[7] == NULL) {
        goto done;
    }
    if (state == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    line_pos = (npy_int64 *)PyArray_DATA(out[0]);
    line_keys = (npy_int64 *)PyArray_DATA(out[1]);
    line_starts = (npy_int64 *)PyArray_DATA(out[2]);
    successors = (npy_int64 *)PyArray_DATA(out[3]);
    page_pos = (npy_int64 *)PyArray_DATA(out[4]);
    page_ranks = (npy_int64 *)PyArray_DATA(out[7]);

    /* Sort the distinct lines, prefix-sum their counts into run starts
     * and point each table slot at its line's sorted slot.  Pages come
     * from the sorted lines: `line >> shift` is monotone, so the lines
     * of one page are consecutive. */
    Py_BEGIN_ALLOW_THREADS
    j = 0;
    for (i = 0; i < table.capacity; i++)
        if (table.vals[i] != 0)
            line_keys[j++] = table.keys[i];
    qsort(line_keys, (size_t)u, sizeof(npy_int64), compare_int64);
    line_starts[0] = 0;
    for (j = 0; j < u; j++) {
        npy_intp h = line_table_find(&table, line_keys[j]);

        line_starts[j + 1] = line_starts[j] + table.vals[h];
        table.vals[h] = j + 1;
        if (j == 0 || (line_keys[j] >> page_shift)
                      != (line_keys[j - 1] >> page_shift))
            n_pages++;
    }
    Py_END_ALLOW_THREADS

    dims[0] = n_pages;
    out[5] = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    dims[0] = n_pages + 1;
    out[6] = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    page_cursor = PyMem_RawMalloc(sizeof(npy_int64) * (size_t)(n_pages + 1));
    if (out[5] == NULL || out[6] == NULL)
        goto done;
    if (page_cursor == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    page_keys = (npy_int64 *)PyArray_DATA(out[5]);
    page_starts = (npy_int64 *)PyArray_DATA(out[6]);

    Py_BEGIN_ALLOW_THREADS
    /* A page's run starts at its first line's run. */
    p = -1;
    for (j = 0; j < u; j++) {
        npy_int64 page = line_keys[j] >> page_shift;

        if (p < 0 || page != page_keys[p]) {
            p++;
            page_keys[p] = page;
            page_starts[p] = page_cursor[p] = line_starts[j];
        }
        state[j].cursor = line_starts[j];
        state[j].last = -1;
        state[j].page = p;
    }
    page_starts[n_pages] = n;

    /* Pass 2, in position order: each access takes the next slot of its
     * line's run and of its page's run, links its line's previous
     * access to it, and its page rank is how far its page's cursor got. */
    for (i = 0; i < n; i++) {
        line_state *s = &state[table.vals[line_table_find(&table,
                                                          lines[i])] - 1];
        npy_int64 c = page_cursor[s->page]++;

        line_pos[s->cursor++] = i;
        if (s->last >= 0)
            successors[s->last] = i;
        s->last = i;
        page_pos[c] = i;
        page_ranks[i] = c - page_starts[s->page];
    }
    for (j = 0; j < u; j++)
        successors[state[j].last] = -1;
    Py_END_ALLOW_THREADS

    result = Py_BuildValue("((OOOO)(OOOO))", out[0], out[1], out[2], out[3],
                           out[4], out[5], out[6], out[7]);

done:
    line_table_free(&table);
    PyMem_RawFree(state);
    PyMem_RawFree(page_cursor);
    for (i = 0; i < 8; i++)
        Py_XDECREF(out[i]);
    return result;
}

/* -- module ------------------------------------------------------------ */

static PyMethodDef native_methods[] = {
    {"warm_lru", warm_lru, METH_VARARGS,
     "warm_lru(sets, lines, mask, assoc, want_info) -> "
     "(hits, hit_mask|None, occupancy|None)"},
    {"warm_hierarchy", warm_hierarchy, METH_VARARGS,
     "warm_hierarchy(l1_sets, llc_sets, lines, l1_mask, l1_assoc, "
     "llc_mask, llc_assoc) -> (l1_hits, llc_hits)"},
    {"clear_sets", clear_sets, METH_VARARGS,
     "clear_sets(sets) -> None: empty every set list in place"},
    {"mshr_walk", mshr_walk, METH_VARARGS,
     "mshr_walk(slot_lines, slot_deadlines, occupied, lines, positions, "
     "allocate, window) -> "
     "(hit_mask, occupied, hits, allocations, failures)"},
    {"stack_from_prev", stack_from_prev, METH_VARARGS,
     "stack_from_prev(prev) -> stack distances (-1 for cold accesses)"},
    {"draw_kinds", draw_kinds, METH_VARARGS,
     "draw_kinds(kind_capsule, branch_capsule, n, mem, store, branch, "
     "mispredict, offset) -> (kind, mem_instr, mem_store, branch_instr, "
     "branch_mispred)"},
    {"count_below", count_below, METH_VARARGS,
     "count_below(capsule, n, threshold) -> draws below threshold"},
    {"mixture_choice", mixture_choice, METH_VARARGS,
     "mixture_choice(capsule, cdf, n, want_choices) -> "
     "(choices|None, counts)"},
    {"mixture_scatter", mixture_scatter, METH_VARARGS,
     "mixture_scatter(choices, parts, pc_base) -> (lines, pcs)"},
    {"build_index", build_index, METH_VARARGS,
     "build_index(lines, page_shift) -> ((positions, keys, starts, "
     "successors), (positions, keys, starts, ranks))"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.kernels._native",
    "Compiled per-access kernels for the 'native' backend.",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    import_array();
    return PyModule_Create(&native_module);
}
