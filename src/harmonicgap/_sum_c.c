/* Compiled prime split for `_intops.harmonic_pair`: the whole of
   `_intops._prime_split` but its final small reduction, on 64-bit limbs.

   prime_split(lo, hi) -> (num, small, q), three little-endian byte strings,
   for 1 <= lo <= hi < 2^63: the sum 1/lo + ... + 1/hi is num / (small q),
   with small = Ls and q the product of the big-prime leaves' denominators,
   exactly as `_prime_split` builds them (see the `_intops` docstring).  Only
   primes of small can divide both num and small q, so the caller reduces by
   gcd(num % small, small) alone.
   mul(a, b) -> bytes: the product of two little-endian byte strings, by the
   kernel's own multiplication; it exists so that tests can check the limb
   arithmetic against Python's `*` directly.

   Numbers are little-endian arrays of 64-bit limbs with a length.  Products
   are schoolbook below KARATSUBA_CUTOFF limbs and subtractive Karatsuba
   above; operands of unequal length are cut into pieces of the shorter one.
   Exact division by a word d = 2^s d' (d' odd) shifts by s and multiplies
   each limb by the inverse of d' modulo 2^64 (Jebelean's exact division,
   GMP's divexact_1); its final borrow is zero exactly when d divides the
   number, which is also the test p | x_p of the big-prime leaves.

   The prefix sums of Ls // j keep only the j that divide Ls.  The Python
   code adds floor quotients for the other j too, but a difference
   prefix[b] - prefix[a] only ever spans j that divide Ls (each j in (a, b]
   has p j in range), so both give the same leaves.

   Bounds, for hi < 2^63: every product of two words that the code forms
   (p^2, p^e p, (a + 1) p) is at most hi, guarded where it could pass it,
   and Ls has at most one limb per small prime, since each p^e <= hi.  A
   prefix sum holds at most hi terms of at most Ls, and so does the smooth
   sum: one limb above Ls covers both.

   A failed malloc raises MemoryError.  The kernel holds the interpreter
   lock throughout and calls PyErr_CheckSignals() about every CHECK_EVERY
   limb operations (products, sieve steps, limbs divided), so Ctrl-C stops
   a long sum with KeyboardInterrupt; after a failure every loop and
   product returns at once and the results are dropped. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t limb;
typedef unsigned __int128 dlimb;

#define KARATSUBA_CUTOFF 32
#define CHECK_EVERY ((size_t)1 << 24)

/* the state of one call: set failed once a Python exception is set */
typedef struct {
    int failed;
    size_t work;
} run;

static void tick(run *r, size_t units)
{
    r->work += units;
    if (r->work >= CHECK_EVERY) {
        r->work = 0;
        if (PyErr_CheckSignals() < 0)
            r->failed = 1;
    }
}

static void *alloc_bytes(run *r, size_t n)
{
    void *p;
    if (r->failed)
        return NULL;
    if (!(p = PyMem_RawMalloc(n ? n : 1))) {
        PyErr_NoMemory();
        r->failed = 1;
    }
    return p;
}

static limb *alloc(run *r, size_t n)
{
    return alloc_bytes(r, n * sizeof(limb));
}

static size_t normalized(const limb *x, size_t n)
{
    while (n && !x[n - 1])
        n--;
    return n;
}

/* r = a + b for an >= bn; returns the carry.  r may be a. */
static limb add(limb *r, const limb *a, size_t an, const limb *b, size_t bn)
{
    limb c = 0;
    size_t i;
    for (i = 0; i < bn; i++) {
        dlimb t = (dlimb)a[i] + b[i] + c;
        r[i] = (limb)t;
        c = (limb)(t >> 64);
    }
    for (; i < an; i++) {
        limb s = a[i] + c;
        c = s < c;
        r[i] = s;
    }
    return c;
}

/* r[0, rn) += x[0, xn) for rn >= xn, the carry running only as far as it
   goes; returns the carry out of r */
static limb add_into(limb *r, size_t rn, const limb *x, size_t xn)
{
    limb c = add(r, r, xn, x, xn);
    size_t i;
    for (i = xn; c && i < rn; i++)
        c = !++r[i];
    return c;
}

/* r = a - b for an >= bn; returns the borrow.  r may be a or b. */
static limb sub(limb *r, const limb *a, size_t an, const limb *b, size_t bn)
{
    limb c = 0;
    size_t i;
    for (i = 0; i < bn; i++) {
        limb x = a[i], y = b[i];
        r[i] = x - y - c;
        c = (x < y) | ((x == y) & c);
    }
    for (; i < an; i++) {
        limb x = a[i];
        r[i] = x - c;
        c = x < c;
    }
    return c;
}

static limb mul_1(limb *r, const limb *a, size_t n, limb b)
{
    limb c = 0;
    size_t i;
    for (i = 0; i < n; i++) {
        dlimb t = (dlimb)a[i] * b + c;
        r[i] = (limb)t;
        c = (limb)(t >> 64);
    }
    return c;
}

static limb addmul_1(limb *r, const limb *a, size_t n, limb b)
{
    limb c = 0;
    size_t i;
    for (i = 0; i < n; i++) {
        dlimb t = (dlimb)a[i] * b + r[i] + c;
        r[i] = (limb)t;
        c = (limb)(t >> 64);
    }
    return c;
}

/* r[0, an + bn) = a b for an >= bn >= 1 */
static void mul_basecase(run *st, limb *r, const limb *a, size_t an, const limb *b, size_t bn)
{
    size_t j;
    r[an] = mul_1(r, a, an, b[0]);
    for (j = 1; j < bn; j++)
        r[an + j] = addmul_1(r + j, a, an, b[j]);
    tick(st, an * bn);
}

/* d[0, m) = |x - y| for x of m limbs and y of h <= m; returns 1 if x < y */
static int absdiff(limb *d, const limb *x, size_t m, const limb *y, size_t h)
{
    size_t i = m;
    while (i > h)
        if (x[--i]) {
            sub(d, x, m, y, h);
            return 0;
        }
    while (i-- > 0)
        if (x[i] != y[i]) {
            if (x[i] > y[i]) {
                sub(d, x, m, y, h);
                return 0;
            }
            sub(d, y, h, x, h);
            memset(d + h, 0, (m - h) * sizeof(limb));
            return 1;
        }
    memset(d, 0, m * sizeof(limb));
    return 0;
}

static size_t kara_scratch(size_t n)
{
    size_t m = (n + 1) / 2;
    return n < KARATSUBA_CUTOFF ? 0 : 4 * m + 1 + kara_scratch(m);
}

/* r[0, 2n) = a b for a, b of n limbs each, r apart from both; ws holds
   kara_scratch(n) limbs.  With a = a0 + a1 B^m (a0 of m = ceil(n/2) limbs,
   a1 of h = n - m), the middle term a0 b1 + a1 b0 is a0 b0 + a1 b1 minus
   (a0 - a1)(b0 - b1), taken from |a0 - a1| |b0 - b1| and its sign. */
static void kara(run *st, limb *r, const limb *a, const limb *b, size_t n, limb *ws)
{
    size_t m = (n + 1) / 2, h = n - m;
    limb *da = ws, *db = ws + m, *w = ws + 2 * m, *next = w + 2 * m + 1;
    limb top;
    int neg;

    if (st->failed)
        return;
    if (n < KARATSUBA_CUTOFF) {
        mul_basecase(st, r, a, n, b, n);
        return;
    }
    neg = absdiff(da, a, m, a + m, h) ^ absdiff(db, b, m, b + m, h);
    kara(st, r, a, b, m, next);
    kara(st, r + 2 * m, a + m, b + m, h, next);
    kara(st, w, da, db, m, next);
    /* w = a0 b0 + a1 b1 -/+ w; the true value is below 2 B^(2m), so the top
       limb, kept modulo 2^64 through a borrow, ends as 0 or 1 */
    if (neg)
        top = add(w, w, 2 * m, r, 2 * m);
    else
        top = -sub(w, r, 2 * m, w, 2 * m);
    top += add(w, w, 2 * m, r + 2 * m, 2 * h);
    w[2 * m] = top;
    /* r + m has m + 2h >= 2m + 1 limbs for n >= 5 */
    add_into(r + m, m + 2 * h, w, 2 * m + 1);
}

/* r[0, an + bn) = a b, r apart from both */
static void mul(run *st, limb *r, const limb *a, size_t an, const limb *b, size_t bn)
{
    limb *ws, *tmp;
    size_t i, s;

    if (an < bn) {
        const limb *t = a;
        a = b;
        b = t;
        i = an;
        an = bn;
        bn = i;
    }
    if (st->failed)
        return;
    if (bn == 0) {
        memset(r, 0, an * sizeof(limb));
        return;
    }
    if (bn < KARATSUBA_CUTOFF) {
        mul_basecase(st, r, a, an, b, bn);
        return;
    }
    s = kara_scratch(bn);
    if (!(ws = alloc(st, s + 2 * bn)))
        return;
    if (an == bn) {
        kara(st, r, a, b, bn, ws);
        PyMem_RawFree(ws);
        return;
    }
    tmp = ws + s;
    memset(r, 0, (an + bn) * sizeof(limb));
    for (i = 0; an - i >= bn; i += bn) {
        kara(st, tmp, a + i, b, bn, ws);
        add_into(r + i, an + bn - i, tmp, 2 * bn);
    }
    if (i < an) {
        mul(st, tmp, b, bn, a + i, an - i);
        add_into(r + i, an + bn - i, tmp, an - i + bn);
    }
    PyMem_RawFree(ws);
}

/* q[0, n) = x / d and 1 if d > 0 divides x; 0 otherwise, q then undefined.
   q may be x. */
static int divexact_1(limb *q, const limb *x, size_t n, limb d)
{
    int s = __builtin_ctzll(d);
    limb inv, c = 0;
    size_t i;

    if (s) {
        if (n && x[0] & (((limb)1 << s) - 1))
            return 0;
        for (i = 0; i + 1 < n; i++)
            q[i] = x[i] >> s | x[i + 1] << (64 - s);
        if (n)
            q[n - 1] = x[n - 1] >> s;
        x = q;
        d >>= s;
    }
    inv = d; /* d d = 1 mod 8; each Newton step doubles the good bits */
    for (i = 0; i < 5; i++)
        inv *= 2 - d * inv;
    for (i = 0; i < n; i++) {
        limb v = x[i], l = v - c;
        c = v < c;
        l *= inv;
        q[i] = l;
        c += (limb)(((dlimb)l * d) >> 64);
    }
    return c == 0;
}

static uint64_t isqrt64(uint64_t n)
{
    uint64_t x = n, y = n / 2 + 1;
    if (n < 2)
        return n;
    while (y < x) {
        x = y;
        y = (x + n / x) / 2;
    }
    return x;
}

/* a fraction of the product tree, num / den; size counts its leaves */
typedef struct {
    limb *num, *den;
    size_t nn, dn, size;
} frac;

static void frac_free(frac *f)
{
    PyMem_RawFree(f->num);
    PyMem_RawFree(f->den);
    f->num = f->den = NULL;
}

/* x = x + y over den_x den_y; frees y */
static void frac_merge(run *st, frac *x, frac *y)
{
    size_t t1 = x->nn + y->dn, t2 = y->nn + x->dn;
    size_t nn = (t1 > t2 ? t1 : t2) + 1, dn = x->dn + y->dn;
    limb *num = alloc(st, nn), *den = alloc(st, dn), *t = alloc(st, t2);

    if (!st->failed) {
        memset(num + t1, 0, (nn - t1) * sizeof(limb));
        mul(st, num, x->num, x->nn, y->den, y->dn);
        mul(st, t, y->num, y->nn, x->den, x->dn);
        add_into(num, nn, t, t2);
        mul(st, den, x->den, x->dn, y->den, y->dn);
    }
    PyMem_RawFree(t);
    frac_free(x);
    frac_free(y);
    if (st->failed) {
        PyMem_RawFree(num);
        PyMem_RawFree(den);
        num = den = NULL;
        nn = dn = 0;
    }
    x->num = num;
    x->den = den;
    x->nn = normalized(num, nn);
    x->dn = normalized(den, dn);
    x->size += y->size;
}

static PyObject *to_bytes(const limb *x, size_t n)
{
    PyObject *out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(n * sizeof(limb)));
    unsigned char *p;
    size_t i;
    int k;
    if (!out)
        return NULL;
    p = (unsigned char *)PyBytes_AS_STRING(out);
    for (i = 0; i < n; i++)
        for (k = 0; k < 64; k += 8)
            *p++ = (unsigned char)(x[i] >> k);
    return out;
}

/* the limbs of a little-endian byte string, or NULL with *n set */
static limb *from_bytes(run *st, const Py_buffer *b, size_t *n)
{
    const unsigned char *p = b->buf;
    size_t i;
    limb *x;
    *n = ((size_t)b->len + 7) / 8;
    if (!(x = alloc(st, *n)))
        return NULL;
    memset(x, 0, *n * sizeof(limb));
    for (i = 0; i < (size_t)b->len; i++)
        x[i / 8] |= (limb)p[i] << (8 * (i % 8));
    return x;
}

static PyObject *mul_bytes(PyObject *self, PyObject *args)
{
    Py_buffer a, b;
    run st = {0, 0};
    limb *x, *y, *r = NULL;
    size_t xn, yn;
    PyObject *res = NULL;

    if (!PyArg_ParseTuple(args, "y*y*:mul", &a, &b))
        return NULL;
    x = from_bytes(&st, &a, &xn);
    y = from_bytes(&st, &b, &yn);
    if ((r = alloc(&st, xn + yn)))
        mul(&st, r, x, xn, y, yn);
    if (!st.failed)
        res = to_bytes(r, xn + yn);
    PyMem_RawFree(x);
    PyMem_RawFree(y);
    PyMem_RawFree(r);
    PyBuffer_Release(&a);
    PyBuffer_Release(&b);
    return res;
}

static PyObject *prime_split(PyObject *self, PyObject *args)
{
    long long lo_arg, hi_arg;
    uint64_t lo, hi, root, J, p, j, k, a, b, pe;
    run st = {0, 0};
    unsigned char *sieve = NULL, *divides = NULL, *smooth = NULL;
    limb *small = NULL, *prefix = NULL, *x = NULL, *acc = NULL, *total = NULL;
    size_t sn = 0, pn, tn = 0, depth = 0, i;
    frac stack[65], top = {NULL, NULL, 0, 0, 0};
    PyObject *res = NULL;

    if (!PyArg_ParseTuple(args, "LL:prime_split", &lo_arg, &hi_arg))
        return NULL;
    if (lo_arg < 1 || lo_arg > hi_arg)
        return PyErr_Format(PyExc_ValueError, "prime_split needs 1 <= lo <= hi");
    lo = (uint64_t)lo_arg;
    hi = (uint64_t)hi_arg;
    root = isqrt64(hi);
    J = hi / (root + 1);

    /* the sieve up to hi, as in _intops._prime_sieve */
    if (!(sieve = alloc_bytes(&st, hi + 1)))
        goto fail;
    memset(sieve, 1, hi + 1);
    sieve[0] = sieve[1] = 0;
    for (p = 2; p <= root; p++)
        if (sieve[p]) {
            for (k = p * p; k <= hi; k += p)
                sieve[k] = 0;
            tick(&st, hi / p);
        }
    if (st.failed)
        goto fail;

    /* Ls, one limb at most per small prime; divides[j] for j <= J: j | Ls */
    for (p = 2; p <= root; p++)
        sn += sieve[p];
    if (!(small = alloc(&st, sn + 1)) || !(divides = alloc_bytes(&st, J + 1)))
        goto fail;
    memset(divides, 1, J + 1);
    small[0] = 1;
    sn = 1;
    for (p = 2; p <= root; p++) {
        if (!sieve[p])
            continue;
        pe = 1;
        while (pe <= hi / p && hi / (pe * p) > (lo - 1) / (pe * p))
            pe *= p;
        small[sn] = mul_1(small, small, sn, pe);
        sn += small[sn] != 0;
        if (pe <= J / p)
            for (k = pe * p; k <= J; k += pe * p)
                divides[k] = 0;
    }

    /* prefix[j] = sum of Ls / i over i <= j with i | Ls, pn limbs each */
    pn = sn + 1;
    if (!(prefix = alloc(&st, (J + 1) * pn)) || !(x = alloc(&st, pn)))
        goto fail;
    memset(prefix, 0, pn * sizeof(limb));
    for (j = 1; j <= J; j++) {
        limb *cur = prefix + j * pn;
        memcpy(cur, cur - pn, pn * sizeof(limb));
        if (divides[j]) {
            divexact_1(x, small, sn, j);
            add_into(cur, pn, x, sn);
        }
        tick(&st, pn);
    }
    if (st.failed)
        goto fail;

    /* the big-prime leaves, streamed through a binary counter of equal-sized
       fractions, as in _intops._tree */
    if (!(smooth = alloc_bytes(&st, hi - lo + 1)))
        goto fail;
    memset(smooth, 1, hi - lo + 1);
    for (p = root + 1; p <= hi && !st.failed; p++) {
        frac leaf = {NULL, NULL, 0, 1, 1};
        if (!sieve[p])
            continue;
        a = (lo - 1) / p;
        b = hi / p;
        if (a == b)
            continue;
        for (k = (a + 1) * p; k <= hi; k += p)
            smooth[k - lo] = 0;
        if (!(leaf.num = alloc(&st, pn)) || !(leaf.den = alloc(&st, 1))) {
            frac_free(&leaf);
            break;
        }
        sub(x, prefix + b * pn, pn, prefix + a * pn, pn);
        leaf.nn = normalized(x, pn);
        if (divexact_1(leaf.num, x, leaf.nn, p)) {
            leaf.nn = normalized(leaf.num, leaf.nn);
            leaf.den[0] = 1;
        } else {
            memcpy(leaf.num, x, leaf.nn * sizeof(limb));
            leaf.den[0] = p;
        }
        tick(&st, pn);
        while (depth && stack[depth - 1].size == leaf.size) {
            frac_merge(&st, &stack[depth - 1], &leaf);
            leaf = stack[--depth];
        }
        stack[depth++] = leaf;
    }
    while (depth > 1) {
        depth--;
        frac_merge(&st, &stack[depth - 1], &stack[depth]);
    }
    if (depth) {
        top = stack[0];
        depth = 0;
    } else if ((top.den = alloc(&st, 1))) {
        top.den[0] = 1;
        top.dn = 1;
    }
    if (st.failed)
        goto fail;

    /* num + q * (sum of Ls / k over the smooth k in range) */
    if (!(acc = alloc(&st, pn)))
        goto fail;
    memset(acc, 0, pn * sizeof(limb));
    for (k = lo; k <= hi && !st.failed; k++)
        if (smooth[k - lo]) {
            divexact_1(x, small, sn, k); /* k is B-smooth and in range: k | Ls */
            add_into(acc, pn, x, sn);
            tick(&st, sn);
        }
    tn = (top.nn > top.dn + pn ? top.nn : top.dn + pn) + 1;
    if (!(total = alloc(&st, tn)))
        goto fail;
    memset(total + top.dn + pn, 0, (tn - top.dn - pn) * sizeof(limb));
    mul(&st, total, top.den, top.dn, acc, pn);
    add_into(total, tn, top.num, top.nn);
    if (st.failed)
        goto fail;
    tn = normalized(total, tn);
    res = Py_BuildValue("(NNN)", to_bytes(total, tn), to_bytes(small, sn), to_bytes(top.den, top.dn));

fail: /* res is still NULL on every path that jumps here */
    for (i = 0; i < depth; i++)
        frac_free(&stack[i]);
    frac_free(&top);
    PyMem_RawFree(sieve);
    PyMem_RawFree(divides);
    PyMem_RawFree(smooth);
    PyMem_RawFree(small);
    PyMem_RawFree(prefix);
    PyMem_RawFree(x);
    PyMem_RawFree(acc);
    PyMem_RawFree(total);
    return res;
}

static PyMethodDef methods[] = {
    {"prime_split", prime_split, METH_VARARGS,
     "prime_split(lo, hi) -> (num, small, q): 1/lo + ... + 1/hi = num / (small q), as"
     " little-endian bytes"},
    {"mul", mul_bytes, METH_VARARGS, "mul(a, b) -> bytes: the product of two little-endian"
     " byte strings"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_sum_c", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled prime split for _intops.harmonic_pair.",
};

PyMODINIT_FUNC PyInit__sum_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddIntConstant(m, "KARATSUBA_CUTOFF", KARATSUBA_CUTOFF) < 0)
        Py_CLEAR(m);
    return m;
}
