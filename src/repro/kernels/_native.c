/* Compiled kernel backend: the per-access loops of the cache, MSHR and
 * classification hot paths, the per-instruction draws of synthetic
 * generation, the in-RAM trace index build and a live index's segment
 * merge.
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
 *   classify_llc(sets, mask, assoc, lines, positions, pcs, capacities,
 *                full_capacity, slot_lines, slot_deadlines, occupied,
 *                window, predictor)
 *       -> (codes, outcome_positions, (llc_hits, llc_misses, warming),
 *           (occupied, mshr_hits, allocations, failures),
 *           (predicted, rechecks, unknown))
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
 *   merge_runs(older_positions, older_keys, older_starts,
 *              newer_positions, newer_keys, newer_starts, out)
 *       -> (keys, starts)
 *
 * `sets` is the live list-of-lists representation of SetAssocCache
 * (LRU at index 0).  A cache kernel first finds the sets its lines
 * map to (a `set_view`), decodes only those into a flat slot array,
 * runs, and writes each set it changed back into its list, reusing
 * the int objects of the lines the set still holds: a set no line
 * reaches is never read, so a call costs its batch, not the cache.
 * `clear_sets` empties every list in place: a flush keeps each set's
 * list object.
 *
 * The MSHR file comes in and goes out as slot arrays, its outstanding
 * lines and deadlines in insertion order (`mshr_file`).  `mshr_lookup`
 * and `mshr_allocate` are MSHRFile.lookup and MSHRFile.allocate;
 * `mshr_walk` runs them over a run of accesses (SMARTS's residual
 * misses), and `classify_llc` between its LLC steps.
 *
 * `classify_llc` is the classifier's LLC phase for one region and
 * configuration: it takes the region's L1-miss substream through the
 * lukewarm LLC in access order, as the scalar reference does past the
 * L1.  An LLC hit updates recency; an outstanding miss is an MSHR hit
 * and skips the fetch; a full set is a conflict miss; otherwise the
 * capacity predictor decides at the access's stride-limited capacity,
 * and a capacity miss at a capacity below the full one is asked again
 * at the full capacity and becomes a conflict miss if that hits.
 * Every outcome but a warming hit allocates an MSHR, and the line is
 * then fetched.  The predictor is either the DSW key table, `(keys,
 * stack)`: the key lines ascending and each one's StatStack stack
 * distance (-1 for a cold key; a line outside the table is an unknown,
 * cold one), or a Python callable `f(pc, line, capacity) -> code`,
 * called once per decision in access order with the GIL held.  On any
 * error nothing is written back: the sets are untouched and the MSHR
 * slot arrays are the caller's copies.
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
 * `merge_runs` merges two adjacent time-ordered segments of a live
 * index at one granularity: every older position precedes every newer
 * one, so each key's merged run is its older run followed by its newer
 * run.  One walk of the two ascending key tables counts the merged
 * keys, a second writes the runs into `out` (the caller's table, a
 * spill map or heap) in key order, so the positions are read and
 * written once, sequentially.  It equals `vff.index._merge_runs`'s
 * numpy merge, the `scalar` reference.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/random/bitgen.h>

#include <stdlib.h>
#include <string.h>

/* Outcome codes (repro.caches.stats). */
#define HIT_MSHR 1
#define MISS_CONFLICT 2
#define MISS_CAPACITY 4
#define MISS_COLD 5
#define HIT_WARMING 6

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

/* -- int64 hash table ---------------------------------------------------- */

/* Open-addressing table of distinct int64 keys, linear probing.
 * `vals[h]` is 0 for an empty slot.  Nothing is ever deleted, so every
 * slot on a present key's probe path is occupied.  Transients come
 * from PyMem_RawMalloc, so tracemalloc sees them and no GIL is needed. */
typedef struct {
    npy_int64 *keys;
    npy_int64 *vals;
    npy_intp capacity;          /* a power of two, at least 2 */
    int shift;                  /* 64 - log2(capacity) */
    npy_intp size;
} line_table;

static int
line_table_init(line_table *t, npy_intp capacity)
{
    int bits = 1;

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

/* The slot holding `key`, or the empty slot where it belongs. */
static inline npy_intp
line_table_find(const line_table *t, npy_int64 key)
{
    npy_intp mask = t->capacity - 1;
    /* Fibonacci hashing: the top bits of the product spread sequential
     * keys over the table. */
    npy_intp h = (npy_intp)(((npy_uint64)key * 0x9E3779B97F4A7C15ULL)
                            >> t->shift);

    while (t->vals[h] != 0 && t->keys[h] != key)
        h = (h + 1) & mask;
    return h;
}

/* Double the capacity, rehashing every key; -1 when out of memory. */
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

/* -- the sets a batch reaches ------------------------------------------ */

/* A batch's view of a cache's set lists: the sets its lines map to,
 * each decoded into one row of `assoc` slots (LRU first).  A batch of
 * fewer lines than a quarter of the sets numbers its rows in
 * first-reach order through a hash table, so the view is sized by the
 * batch alone; a longer one indexes its rows by set, which costs
 * O(n_sets) = O(4n) to allocate and saves a probe per access. */
typedef struct {
    PyObject *sets;             /* borrowed: the cache's list of lists */
    npy_int64 mask;
    npy_intp assoc;
    int dense;                  /* each set is its own row */
    line_table rows;            /* otherwise: set -> its row + 1 */
    npy_intp n_reached;
    npy_int64 *reached;         /* the reached sets (by row order) */
    npy_int64 *slots;           /* rows of `assoc` lines */
    npy_intp *occ;              /* valid ways per row */
    unsigned char *dirty;       /* the row changed: write it back */
} set_view;

static void
set_view_close(set_view *v)
{
    line_table_free(&v->rows);
    PyMem_RawFree(v->reached);
    PyMem_RawFree(v->slots);
    PyMem_RawFree(v->occ);
    PyMem_RawFree(v->dirty);
    v->reached = v->slots = NULL;
    v->occ = NULL;
    v->dirty = NULL;
}

/* The row of the `k`-th reached set. */
static inline npy_intp
reached_row(const set_view *v, npy_intp k)
{
    return v->dense ? (npy_intp)v->reached[k] : k;
}

/* The row of the set `line` maps to; the set must be in the view. */
static inline npy_intp
set_view_row(const set_view *v, npy_int64 line)
{
    if (v->dense)
        return (npy_intp)(line & v->mask);
    return (npy_intp)v->rows.vals[line_table_find(&v->rows,
                                                  line & v->mask)] - 1;
}

/* Find the sets `lines` reach (no GIL needed), then decode each of
 * them; -1 with an exception set (the view is then closed). */
static int
set_view_open(set_view *v, PyObject *sets, npy_int64 mask, npy_intp assoc,
              const npy_int64 *lines, npy_intp n)
{
    npy_intp n_sets = PyList_GET_SIZE(sets);
    npy_intp bound = n < n_sets ? n : n_sets;
    npy_intp n_rows, i, k, j, m;

    memset(v, 0, sizeof(*v));
    v->sets = sets;
    v->mask = mask;
    v->assoc = assoc;
    v->dense = 4 * n >= n_sets;
    n_rows = v->dense ? n_sets : bound;
    v->reached = PyMem_RawMalloc(sizeof(npy_int64) * (size_t)(bound + 1));
    v->slots = PyMem_RawMalloc(sizeof(npy_int64)
                               * (size_t)(n_rows * assoc + 1));
    v->occ = PyMem_RawMalloc(sizeof(npy_intp) * (size_t)(n_rows + 1));
    v->dirty = PyMem_RawCalloc((size_t)n_rows + 1, 1);
    if (v->reached == NULL || v->slots == NULL || v->occ == NULL
            || v->dirty == NULL
            || (!v->dense && line_table_init(&v->rows, 2 * bound) < 0)) {
        PyErr_NoMemory();
        goto fail;
    }

    Py_BEGIN_ALLOW_THREADS
    {
        npy_int64 *reached = v->reached;
        npy_intp count = 0;

        if (v->dense) {
            /* `dirty` marks the reached sets until the loop starts;
             * once every set is reached the rest cannot add one.  The
             * sets are then listed in order, so decoding and writing
             * back walk the set lists in memory order. */
            unsigned char *mark = v->dirty;

            for (i = 0; i < n && count < n_sets; i++) {
                npy_int64 s = lines[i] & mask;

                count += !mark[s];
                mark[s] = 1;
            }
            for (count = k = 0; k < n_sets; k++) {
                if (mark[k]) {
                    mark[k] = 0;
                    reached[count++] = k;
                }
            }
        } else {
            line_table rows = v->rows;

            for (i = 0; i < n; i++) {
                npy_int64 s = lines[i] & mask;
                npy_intp h = line_table_find(&rows, s);

                if (rows.vals[h] == 0) {
                    rows.keys[h] = s;
                    reached[count] = s;
                    rows.vals[h] = ++count;
                }
            }
        }
        v->n_reached = count;
    }
    Py_END_ALLOW_THREADS

    for (k = 0; k < v->n_reached; k++) {
        PyObject *entries = PyList_GET_ITEM(sets, v->reached[k]);
        npy_int64 *base = v->slots + reached_row(v, k) * assoc;

        if (!PyList_Check(entries)) {
            PyErr_SetString(PyExc_TypeError,
                            "cache sets must be lists of lines");
            goto fail;
        }
        m = PyList_GET_SIZE(entries);
        if (m > assoc) {
            PyErr_SetString(PyExc_ValueError,
                            "set holds more lines than the associativity");
            goto fail;
        }
        v->occ[reached_row(v, k)] = m;
        for (j = 0; j < m; j++) {
            base[j] = PyLong_AsLongLong(PyList_GET_ITEM(entries, j));
            if (base[j] == -1 && PyErr_Occurred())
                goto fail;
        }
    }
    return 0;

fail:
    set_view_close(v);
    return -1;
}

/* Write every changed row back into its set's list.  A line the list
 * already holds keeps its int object, and a list of the row's length
 * is updated in place, so a row costs the lines it gained.  LRU steps
 * keep most lines in order, so each line is looked for from just past
 * the previous one's old slot. */
static int
set_view_store(const set_view *v)
{
    npy_intp k, j, q, t, at, m, m0;
    npy_int64 *held = PyMem_RawMalloc(sizeof(npy_int64) * (size_t)v->assoc);
    PyObject **items = PyMem_RawMalloc(sizeof(PyObject *)
                                       * (size_t)v->assoc);
    int status = -1;

    if (held == NULL || items == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (k = 0; k < v->n_reached; k++) {
        npy_intp r = reached_row(v, k);
        const npy_int64 *row = v->slots + r * v->assoc;
        PyObject *entries = PyList_GET_ITEM(v->sets, v->reached[k]);

        if (!v->dirty[r])
            continue;
        m = v->occ[r];
        /* A set list a predictor callback replaced or overfilled since
         * the decode lends no objects: the row gets a new list. */
        m0 = PyList_Check(entries) && PyList_GET_SIZE(entries) <= v->assoc
            ? PyList_GET_SIZE(entries) : 0;
        for (q = 0; q < m0; q++) {
            held[q] = PyLong_AsLongLong(PyList_GET_ITEM(entries, q));
            if (held[q] == -1 && PyErr_Occurred())
                goto done;
        }
        for (j = at = 0; j < m; j++) {
            for (t = 0, q = at; t < m0 && held[q] != row[j]; t++)
                q = q + 1 < m0 ? q + 1 : 0;
            if (t < m0) {
                at = q + 1 < m0 ? q + 1 : 0;
                items[j] = PyList_GET_ITEM(entries, q);
                Py_INCREF(items[j]);
            } else if ((items[j] = PyLong_FromLongLong(row[j])) == NULL) {
                while (j-- > 0)
                    Py_DECREF(items[j]);
                goto done;
            }
        }
        if (m == m0) {
            for (j = 0; j < m; j++) {
                PyObject *old = PyList_GET_ITEM(entries, j);

                PyList_SET_ITEM(entries, j, items[j]);
                Py_DECREF(old);
            }
        } else {
            PyObject *fresh = PyList_New(m);

            if (fresh == NULL) {
                for (j = 0; j < m; j++)
                    Py_DECREF(items[j]);
                goto done;
            }
            for (j = 0; j < m; j++)
                PyList_SET_ITEM(fresh, j, items[j]);
            if (PyList_SetItem(v->sets, (Py_ssize_t)v->reached[k],
                               fresh) < 0)
                goto done;
        }
    }
    status = 0;

done:
    PyMem_RawFree(held);
    PyMem_RawFree(items);
    return status;
}

/* -- LRU steps on one row ---------------------------------------------- */

/* Make `line` the MRU line of a row holding `m` lines; 1 if it was
 * there (a hit), else 0 and the row is unchanged. */
static inline int
lru_hit(npy_int64 *base, npy_intp m, npy_int64 line)
{
    npy_intp j;

    for (j = 0; j < m; j++) {
        if (base[j] == line) {
            for (; j < m - 1; j++)
                base[j] = base[j + 1];
            base[m - 1] = line;
            return 1;
        }
    }
    return 0;
}

/* Fill an absent `line` as MRU, evicting the LRU line of a full row. */
static inline void
lru_fill(npy_int64 *base, npy_intp *occ, npy_intp assoc, npy_int64 line)
{
    npy_intp m = *occ;
    npy_intp j;

    if (m >= assoc) {
        for (j = 0; j < m - 1; j++)
            base[j] = base[j + 1];
        base[m - 1] = line;
    } else {
        base[m] = line;
        *occ = m + 1;
    }
}

/* One LRU access: SetAssocCache.access.  Returns 1 on a hit. */
static inline int
lru_access(npy_int64 *base, npy_intp *occ, npy_intp assoc, npy_int64 line)
{
    if (lru_hit(base, *occ, line))
        return 1;
    lru_fill(base, occ, assoc, line);
    return 0;
}

/* 0 when `sets` has `mask + 1` lists and `assoc` is positive, else -1
 * with a ValueError. */
static int
check_geometry(PyObject *sets, long long mask, long long assoc)
{
    if (assoc > 0 && PyList_GET_SIZE(sets) == (npy_intp)(mask + 1))
        return 0;
    PyErr_SetString(PyExc_ValueError,
                    "set count must equal mask + 1 with assoc > 0");
    return -1;
}

/* -- warm_lru ---------------------------------------------------------- */

static PyObject *
warm_lru(PyObject *self, PyObject *args)
{
    PyObject *sets;
    PyArrayObject *lines_arr;
    long long mask, assoc_ll;
    int want_info;
    npy_intp assoc, n, i;
    npy_int64 *lines, *occ_out = NULL;
    unsigned char *mask_out = NULL;
    PyArrayObject *hit_mask = NULL, *occupancy = NULL;
    long long hits = 0;
    set_view view;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "O!O!LLp", &PyList_Type, &sets,
                          &PyArray_Type, &lines_arr,
                          &mask, &assoc_ll, &want_info))
        return NULL;
    if (check_geometry(sets, mask, assoc_ll) < 0
            || check_vector(lines_arr, NPY_INT64, "lines") < 0)
        return NULL;
    assoc = (npy_intp)assoc_ll;
    n = PyArray_DIM(lines_arr, 0);
    lines = (npy_int64 *)PyArray_DATA(lines_arr);

    if (want_info) {
        npy_intp dims[1] = {n};
        hit_mask = (PyArrayObject *)PyArray_ZEROS(1, dims, NPY_BOOL, 0);
        occupancy = (PyArrayObject *)PyArray_ZEROS(1, dims, NPY_INT64, 0);
        if (hit_mask == NULL || occupancy == NULL)
            goto done;
        mask_out = (unsigned char *)PyArray_DATA(hit_mask);
        occ_out = (npy_int64 *)PyArray_DATA(occupancy);
    }
    if (set_view_open(&view, sets, (npy_int64)mask, assoc, lines, n) < 0)
        goto done;

    Py_BEGIN_ALLOW_THREADS
    {
        /* A copy whose address never escapes stays in registers. */
        const set_view v = view;

        for (i = 0; i < n; i++) {
            npy_int64 line = lines[i];
            npy_intp r = set_view_row(&v, line);

            if (want_info)
                occ_out[i] = (npy_int64)v.occ[r];
            v.dirty[r] = 1;
            if (lru_access(v.slots + r * assoc, &v.occ[r], assoc, line)) {
                hits++;
                if (want_info)
                    mask_out[i] = 1;
            }
        }
    }
    Py_END_ALLOW_THREADS

    if (set_view_store(&view) == 0) {
        if (want_info)
            result = Py_BuildValue("(LOO)", hits, hit_mask, occupancy);
        else
            result = Py_BuildValue("(LOO)", hits, Py_None, Py_None);
    }
    set_view_close(&view);

done:
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
    long long l1_mask, l1_assoc_ll, llc_mask, llc_assoc_ll;
    npy_intp l1_assoc, llc_assoc, n, i;
    npy_int64 *lines;
    long long l1_hits = 0, llc_hits = 0;
    set_view l1, llc;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "O!O!O!LLLL",
                          &PyList_Type, &l1_sets,
                          &PyList_Type, &llc_sets,
                          &PyArray_Type, &lines_arr,
                          &l1_mask, &l1_assoc_ll,
                          &llc_mask, &llc_assoc_ll))
        return NULL;
    if (check_geometry(l1_sets, l1_mask, l1_assoc_ll) < 0
            || check_geometry(llc_sets, llc_mask, llc_assoc_ll) < 0
            || check_vector(lines_arr, NPY_INT64, "lines") < 0)
        return NULL;
    l1_assoc = (npy_intp)l1_assoc_ll;
    llc_assoc = (npy_intp)llc_assoc_ll;
    n = PyArray_DIM(lines_arr, 0);
    lines = (npy_int64 *)PyArray_DATA(lines_arr);

    /* The LLC view holds the LLC sets of every line, a superset of
     * those the L1 misses reach; only the reached ones are written. */
    if (set_view_open(&l1, l1_sets, (npy_int64)l1_mask, l1_assoc,
                      lines, n) < 0)
        return NULL;
    if (set_view_open(&llc, llc_sets, (npy_int64)llc_mask, llc_assoc,
                      lines, n) < 0) {
        set_view_close(&l1);
        return NULL;
    }

    Py_BEGIN_ALLOW_THREADS
    {
        /* Copies whose addresses never escape stay in registers. */
        const set_view a = l1, b = llc;

        for (i = 0; i < n; i++) {
            npy_int64 line = lines[i];
            npy_intp r = set_view_row(&a, line);

            a.dirty[r] = 1;
            if (lru_access(a.slots + r * l1_assoc, &a.occ[r], l1_assoc,
                           line)) {
                l1_hits++;
                continue;
            }
            /* L1 miss: the fill happened inside lru_access; the LLC
             * sees exactly the L1-miss substream, as in the interleaved
             * loop. */
            r = set_view_row(&b, line);
            b.dirty[r] = 1;
            if (lru_access(b.slots + r * llc_assoc, &b.occ[r], llc_assoc,
                           line))
                llc_hits++;
        }
    }
    Py_END_ALLOW_THREADS

    if (set_view_store(&l1) == 0 && set_view_store(&llc) == 0)
        result = Py_BuildValue("(LL)", l1_hits, llc_hits);
    set_view_close(&l1);
    set_view_close(&llc);
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

/* -- MSHR file --------------------------------------------------------- */

/* An MSHR file over the caller's slot arrays: `occupied` outstanding
 * lines and their deadlines, in insertion order, as MSHRFile keeps
 * its dict.  The counters start at zero: they are this call's. */
typedef struct {
    npy_int64 *lines;
    npy_int64 *deadlines;
    npy_intp capacity;
    npy_intp occupied;
    npy_int64 window;
    npy_int64 next_expiry;      /* nothing expires before it */
    long long hits, allocations, failures;
} mshr_file;

static int
mshr_open(mshr_file *f, PyArrayObject *slot_lines,
          PyArrayObject *slot_deadlines, long long occupied,
          long long window)
{
    npy_intp j;

    if (check_vector(slot_lines, NPY_INT64, "slot_lines") < 0
            || check_vector(slot_deadlines, NPY_INT64,
                            "slot_deadlines") < 0)
        return -1;
    memset(f, 0, sizeof(*f));
    f->capacity = PyArray_DIM(slot_lines, 0);
    if (PyArray_DIM(slot_deadlines, 0) != f->capacity || occupied < 0
            || occupied > f->capacity || window <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "MSHR slots: mismatched lengths, occupancy beyond "
                        "the slots, or a non-positive window");
        return -1;
    }
    f->lines = (npy_int64 *)PyArray_DATA(slot_lines);
    f->deadlines = (npy_int64 *)PyArray_DATA(slot_deadlines);
    f->occupied = (npy_intp)occupied;
    f->window = (npy_int64)window;
    f->next_expiry = NPY_MAX_INT64;
    for (j = 0; j < f->occupied; j++)
        if (f->deadlines[j] < f->next_expiry)
            f->next_expiry = f->deadlines[j];
    return 0;
}

/* MSHRFile.lookup: drop every entry due by `now`, keeping insertion
 * order, then look `line` up.  Returns 1 on an MSHR hit. */
static inline int
mshr_lookup(mshr_file *f, npy_int64 line, npy_int64 now)
{
    npy_intp j;

    if (now >= f->next_expiry) {
        npy_intp kept = 0;

        f->next_expiry = NPY_MAX_INT64;
        for (j = 0; j < f->occupied; j++) {
            if (f->deadlines[j] > now) {
                f->lines[kept] = f->lines[j];
                f->deadlines[kept] = f->deadlines[j];
                if (f->deadlines[j] < f->next_expiry)
                    f->next_expiry = f->deadlines[j];
                kept++;
            }
        }
        f->occupied = kept;
    }
    for (j = 0; j < f->occupied; j++) {
        if (f->lines[j] == line) {
            f->hits++;
            return 1;
        }
    }
    return 0;
}

/* MSHRFile.allocate after a missed lookup at the same `now`: take a
 * free slot until `now + window`, or count a failure. */
static inline void
mshr_allocate(mshr_file *f, npy_int64 line, npy_int64 now)
{
    if (f->occupied >= f->capacity) {
        f->failures++;
        return;
    }
    f->lines[f->occupied] = line;
    f->deadlines[f->occupied] = now + f->window;
    if (now + f->window < f->next_expiry)
        f->next_expiry = now + f->window;
    f->occupied++;
    f->allocations++;
}

/* -- mshr_walk ---------------------------------------------------------- */

static PyObject *
mshr_walk(PyObject *self, PyObject *args)
{
    PyArrayObject *slot_lines_arr, *slot_deadlines_arr;
    PyArrayObject *lines_arr, *positions_arr, *allocate_arr;
    PyArrayObject *hit_mask;
    long long occupied, window;
    npy_intp n, i, dims[1];
    npy_int64 *lines, *positions;
    const unsigned char *allocate;
    unsigned char *hits_out;
    mshr_file file;

    if (!PyArg_ParseTuple(args, "O!O!LO!O!O!L",
                          &PyArray_Type, &slot_lines_arr,
                          &PyArray_Type, &slot_deadlines_arr,
                          &occupied,
                          &PyArray_Type, &lines_arr,
                          &PyArray_Type, &positions_arr,
                          &PyArray_Type, &allocate_arr,
                          &window))
        return NULL;
    if (mshr_open(&file, slot_lines_arr, slot_deadlines_arr, occupied,
                  window) < 0
            || check_vector(lines_arr, NPY_INT64, "lines") < 0
            || check_vector(positions_arr, NPY_INT64, "positions") < 0
            || check_vector(allocate_arr, NPY_BOOL, "allocate") < 0)
        return NULL;
    n = PyArray_DIM(lines_arr, 0);
    if (PyArray_DIM(positions_arr, 0) != n
            || PyArray_DIM(allocate_arr, 0) != n) {
        PyErr_SetString(PyExc_ValueError, "mshr_walk: mismatched lengths");
        return NULL;
    }
    lines = (npy_int64 *)PyArray_DATA(lines_arr);
    positions = (npy_int64 *)PyArray_DATA(positions_arr);
    allocate = (const unsigned char *)PyArray_DATA(allocate_arr);

    dims[0] = n;
    hit_mask = (PyArrayObject *)PyArray_ZEROS(1, dims, NPY_BOOL, 0);
    if (hit_mask == NULL)
        return NULL;
    hits_out = (unsigned char *)PyArray_DATA(hit_mask);

    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < n; i++) {
        if (mshr_lookup(&file, lines[i], positions[i]))
            hits_out[i] = 1;
        else if (allocate[i])
            mshr_allocate(&file, lines[i], positions[i]);
    }
    Py_END_ALLOW_THREADS

    return Py_BuildValue("(NnLLL)", hit_mask, file.occupied, file.hits,
                         file.allocations, file.failures);
}

/* -- classify_llc ------------------------------------------------------- */

/* The DSW key table: key lines ascending, each one's stack distance. */
typedef struct {
    const npy_int64 *keys;
    const double *stack;
    npy_intp n;
    long long rechecks, unknown;
} key_table;

/* The DSW decision for `line` at `capacity`, with the full-capacity
 * recheck: DirectedCapacityPredictor's calls, as the classifier makes
 * them. */
static inline int
key_table_predict(key_table *t, npy_int64 line, npy_int64 capacity,
                  npy_int64 full_capacity)
{
    npy_intp lo = 0, hi = t->n;
    double stack;

    while (lo < hi) {
        npy_intp mid = lo + (hi - lo) / 2;

        if (t->keys[mid] < line)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == t->n || t->keys[lo] != line) {
        t->unknown++;
        return MISS_COLD;
    }
    stack = t->stack[lo];
    if (stack < 0)
        return MISS_COLD;
    if (!(stack >= (double)capacity))
        return HIT_WARMING;
    if (capacity < full_capacity) {
        t->rechecks++;
        if (!(stack >= (double)full_capacity))
            return MISS_CONFLICT;
    }
    return MISS_CAPACITY;
}

/* One call of a Python predictor; its outcome code, or -1 with an
 * exception set when it raises or answers no outcome code. */
static int
call_predictor(PyObject *predict, npy_int64 pc, npy_int64 line,
               npy_int64 capacity)
{
    PyObject *call_args[3], *out;
    long code = -1;
    int k;

    call_args[0] = PyLong_FromLongLong(pc);
    call_args[1] = PyLong_FromLongLong(line);
    call_args[2] = PyLong_FromLongLong(capacity);
    out = (call_args[0] == NULL || call_args[1] == NULL
           || call_args[2] == NULL)
        ? NULL : PyObject_Vectorcall(predict, call_args, 3, NULL);
    for (k = 0; k < 3; k++)
        Py_XDECREF(call_args[k]);
    if (out == NULL)
        return -1;
    code = PyLong_AsLong(out);
    Py_DECREF(out);
    if (code == -1 && PyErr_Occurred())
        return -1;
    if (code < 0 || code > HIT_WARMING) {
        PyErr_Format(PyExc_ValueError,
                     "capacity predictor answered %ld, not an outcome code",
                     code);
        return -1;
    }
    return (int)code;
}

/* The Python predictor's decision, with the full-capacity recheck. */
static int
callback_predict(PyObject *predict, npy_int64 pc, npy_int64 line,
                 npy_int64 capacity, npy_int64 full_capacity)
{
    int code = call_predictor(predict, pc, line, capacity);

    if (code == MISS_CAPACITY && capacity < full_capacity) {
        int full = call_predictor(predict, pc, line, full_capacity);

        if (full < 0)
            return -1;
        if (full == HIT_WARMING)
            return MISS_CONFLICT;
    }
    return code;
}

static PyObject *
classify_llc(PyObject *self, PyObject *args)
{
    PyObject *sets, *predictor, *predict = NULL, *result = NULL;
    PyArrayObject *lines_arr, *positions_arr, *pcs_arr, *capacities_arr;
    PyArrayObject *slot_lines_arr, *slot_deadlines_arr;
    PyArrayObject *codes_arr = NULL, *resolved_arr = NULL;
    long long mask, assoc_ll, full_ll, occupied, window;
    long long llc_hits = 0, llc_misses = 0, warming = 0, predicted = 0;
    npy_intp assoc, n, i, k = 0, dims[1];
    const npy_int64 *lines, *positions, *pcs, *capacities;
    npy_int8 *codes;
    npy_int64 *resolved;
    npy_int64 full_capacity;
    key_table table = {NULL, NULL, 0, 0, 0};
    mshr_file file;
    set_view view;
    PyThreadState *released = NULL;
    int failed = 0;

    if (!PyArg_ParseTuple(args, "O!LLO!O!O!O!LO!O!LLO",
                          &PyList_Type, &sets, &mask, &assoc_ll,
                          &PyArray_Type, &lines_arr,
                          &PyArray_Type, &positions_arr,
                          &PyArray_Type, &pcs_arr,
                          &PyArray_Type, &capacities_arr, &full_ll,
                          &PyArray_Type, &slot_lines_arr,
                          &PyArray_Type, &slot_deadlines_arr,
                          &occupied, &window, &predictor))
        return NULL;
    if (check_geometry(sets, mask, assoc_ll) < 0
            || mshr_open(&file, slot_lines_arr, slot_deadlines_arr,
                         occupied, window) < 0
            || check_vector(lines_arr, NPY_INT64, "lines") < 0
            || check_vector(positions_arr, NPY_INT64, "positions") < 0
            || check_vector(pcs_arr, NPY_INT64, "pcs") < 0
            || check_vector(capacities_arr, NPY_INT64, "capacities") < 0)
        return NULL;
    n = PyArray_DIM(lines_arr, 0);
    if (PyArray_DIM(positions_arr, 0) != n || PyArray_DIM(pcs_arr, 0) != n
            || PyArray_DIM(capacities_arr, 0) != n) {
        PyErr_SetString(PyExc_ValueError, "classify_llc: mismatched lengths");
        return NULL;
    }
    if (PyTuple_Check(predictor)) {
        PyArrayObject *keys_arr, *stack_arr;

        if (!PyArg_ParseTuple(predictor, "O!O!", &PyArray_Type, &keys_arr,
                              &PyArray_Type, &stack_arr)
                || check_vector(keys_arr, NPY_INT64, "keys") < 0
                || check_vector(stack_arr, NPY_FLOAT64, "stack") < 0)
            return NULL;
        if (PyArray_DIM(stack_arr, 0) != PyArray_DIM(keys_arr, 0)) {
            PyErr_SetString(PyExc_ValueError,
                            "one stack distance per key line required");
            return NULL;
        }
        table.keys = (const npy_int64 *)PyArray_DATA(keys_arr);
        table.stack = (const double *)PyArray_DATA(stack_arr);
        table.n = PyArray_DIM(keys_arr, 0);
    } else if (PyCallable_Check(predictor)) {
        predict = predictor;
    } else {
        PyErr_SetString(PyExc_TypeError,
                        "predictor must be a (keys, stack) table or callable");
        return NULL;
    }
    assoc = (npy_intp)assoc_ll;
    full_capacity = (npy_int64)full_ll;
    lines = (const npy_int64 *)PyArray_DATA(lines_arr);
    positions = (const npy_int64 *)PyArray_DATA(positions_arr);
    pcs = (const npy_int64 *)PyArray_DATA(pcs_arr);
    capacities = (const npy_int64 *)PyArray_DATA(capacities_arr);

    codes = PyMem_RawMalloc((size_t)n + 1);
    resolved = PyMem_RawMalloc(sizeof(npy_int64) * (size_t)(n + 1));
    if (codes == NULL || resolved == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (set_view_open(&view, sets, (npy_int64)mask, assoc, lines, n) < 0)
        goto done;

    /* With the key table nothing in the loop needs the GIL. */
    if (predict == NULL)
        released = PyEval_SaveThread();
    for (i = 0; i < n; i++) {
        npy_int64 line = lines[i], now = positions[i];
        npy_intp r = set_view_row(&view, line);
        npy_int64 *base = view.slots + r * assoc;
        int code;

        if (lru_hit(base, view.occ[r], line)) {
            view.dirty[r] = 1;
            llc_hits++;
            continue;
        }
        if (mshr_lookup(&file, line, now)) {
            code = HIT_MSHR;        /* delayed hit: no fetch */
        } else {
            if (view.occ[r] >= assoc) {
                code = MISS_CONFLICT;
            } else {
                predicted++;
                code = predict == NULL
                    ? key_table_predict(&table, line, capacities[i],
                                        full_capacity)
                    : callback_predict(predict, pcs[i], line, capacities[i],
                                       full_capacity);
                if (code < 0) {
                    failed = 1;
                    break;
                }
            }
            if (code == HIT_WARMING)
                warming++;
            else
                mshr_allocate(&file, line, now);
            lru_fill(base, &view.occ[r], assoc, line);
            view.dirty[r] = 1;
            llc_misses++;
        }
        codes[k] = (npy_int8)code;
        resolved[k] = now;
        k++;
    }
    if (released != NULL)
        PyEval_RestoreThread(released);

    if (!failed) {
        dims[0] = k;
        codes_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT8, 0);
        resolved_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
        if (codes_arr != NULL && resolved_arr != NULL
                && set_view_store(&view) == 0) {
            memcpy(PyArray_DATA(codes_arr), codes, (size_t)k);
            memcpy(PyArray_DATA(resolved_arr), resolved,
                   sizeof(npy_int64) * (size_t)k);
            result = Py_BuildValue(
                "(OO(LLL)(nLLL)(LLL))", codes_arr, resolved_arr,
                llc_hits, llc_misses, warming,
                file.occupied, file.hits, file.allocations, file.failures,
                predicted, table.rechecks, table.unknown);
        }
    }
    set_view_close(&view);

done:
    PyMem_RawFree(codes);
    PyMem_RawFree(resolved);
    Py_XDECREF(codes_arr);
    Py_XDECREF(resolved_arr);
    return result;
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
    /* Pass 1 keeps each line's access count in its table slot; the
     * sort replaces it with the line's sorted slot plus one. */
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

/* -- merge_runs (a live index's segment merge) ------------------------- */

/* 0 when a segment's run starts are a valid grouping of its `n`
 * positions: `n_keys + 1` entries rising from 0 to `n`. */
static int
check_runs(const npy_int64 *starts, npy_intp n_keys, npy_intp n,
           const char *name)
{
    npy_intp k;

    if (starts[0] != 0 || starts[n_keys] != n)
        goto bad;
    for (k = 0; k < n_keys; k++)
        if (starts[k + 1] < starts[k])
            goto bad;
    return 0;
bad:
    PyErr_Format(PyExc_ValueError,
                 "merge_runs: %s starts are not a grouping of its "
                 "positions", name);
    return -1;
}

static PyObject *
merge_runs(PyObject *self, PyObject *args)
{
    static const char *names[7] = {
        "older positions", "older keys", "older starts",
        "newer positions", "newer keys", "newer starts", "out"};
    PyArrayObject *arr[7];
    const npy_int64 *a_pos, *a_keys, *a_starts, *b_pos, *b_keys, *b_starts;
    npy_int64 *out, *keys, *starts;
    npy_intp na, nb, i, j, k, w, x, dims[1];
    PyArrayObject *keys_arr = NULL, *starts_arr = NULL;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O!", &PyArray_Type, &arr[0],
                          &PyArray_Type, &arr[1], &PyArray_Type, &arr[2],
                          &PyArray_Type, &arr[3], &PyArray_Type, &arr[4],
                          &PyArray_Type, &arr[5], &PyArray_Type, &arr[6]))
        return NULL;
    for (i = 0; i < 7; i++)
        if (check_vector(arr[i], NPY_INT64, names[i]) < 0)
            return NULL;
    if (!PyArray_ISWRITEABLE(arr[6])) {
        PyErr_SetString(PyExc_ValueError, "merge_runs: out is read-only");
        return NULL;
    }
    na = PyArray_DIM(arr[1], 0);
    nb = PyArray_DIM(arr[4], 0);
    if (PyArray_DIM(arr[2], 0) != na + 1 || PyArray_DIM(arr[5], 0) != nb + 1
            || PyArray_DIM(arr[6], 0)
               != PyArray_DIM(arr[0], 0) + PyArray_DIM(arr[3], 0)) {
        PyErr_SetString(PyExc_ValueError,
                        "merge_runs: table lengths disagree");
        return NULL;
    }
    a_pos = (const npy_int64 *)PyArray_DATA(arr[0]);
    a_keys = (const npy_int64 *)PyArray_DATA(arr[1]);
    a_starts = (const npy_int64 *)PyArray_DATA(arr[2]);
    b_pos = (const npy_int64 *)PyArray_DATA(arr[3]);
    b_keys = (const npy_int64 *)PyArray_DATA(arr[4]);
    b_starts = (const npy_int64 *)PyArray_DATA(arr[5]);
    out = (npy_int64 *)PyArray_DATA(arr[6]);
    if (check_runs(a_starts, na, PyArray_DIM(arr[0], 0), "older") < 0
            || check_runs(b_starts, nb, PyArray_DIM(arr[3], 0), "newer") < 0)
        return NULL;

    /* The merged key count: one walk of the two ascending key tables. */
    for (i = j = k = 0; i < na || j < nb; k++) {
        if (j >= nb || (i < na && a_keys[i] < b_keys[j]))
            i++;
        else if (i >= na || b_keys[j] < a_keys[i])
            j++;
        else
            i++, j++;
    }
    dims[0] = k;
    keys_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    dims[0] = k + 1;
    starts_arr = (PyArrayObject *)PyArray_EMPTY(1, dims, NPY_INT64, 0);
    if (keys_arr == NULL || starts_arr == NULL)
        goto done;
    keys = (npy_int64 *)PyArray_DATA(keys_arr);
    starts = (npy_int64 *)PyArray_DATA(starts_arr);

    /* The same walk, writing each merged key's older run, then its
     * newer run, in key order. */
    Py_BEGIN_ALLOW_THREADS
    for (i = j = k = w = 0; i < na || j < nb; k++) {
        int take_a = j >= nb || (i < na && a_keys[i] <= b_keys[j]);
        int take_b = i >= na || (j < nb && b_keys[j] <= a_keys[i]);

        keys[k] = take_a ? a_keys[i] : b_keys[j];
        starts[k] = w;
        if (take_a) {
            for (x = a_starts[i]; x < a_starts[i + 1]; x++)
                out[w++] = a_pos[x];
            i++;
        }
        if (take_b) {
            for (x = b_starts[j]; x < b_starts[j + 1]; x++)
                out[w++] = b_pos[x];
            j++;
        }
    }
    starts[k] = w;
    Py_END_ALLOW_THREADS

    result = Py_BuildValue("(OO)", keys_arr, starts_arr);

done:
    Py_XDECREF(keys_arr);
    Py_XDECREF(starts_arr);
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
    {"classify_llc", classify_llc, METH_VARARGS,
     "classify_llc(sets, mask, assoc, lines, positions, pcs, capacities, "
     "full_capacity, slot_lines, slot_deadlines, occupied, window, "
     "predictor) -> (codes, outcome_positions, (llc_hits, llc_misses, "
     "warming), (occupied, mshr_hits, allocations, failures), "
     "(predicted, rechecks, unknown))"},
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
    {"merge_runs", merge_runs, METH_VARARGS,
     "merge_runs(older_positions, older_keys, older_starts, "
     "newer_positions, newer_keys, newer_starts, out) -> (keys, starts)"},
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
