/* Compiled Weyl-sum kernel for `counting`: the fixed-point Taylor evaluation
   of `counting._series_eval` and the complex power step of
   `counting._PowerSums.get`, operation for operation, in signed 128-bit
   integers with exact 256-bit products and Python's floor semantics, so
   both return exactly what the pure loops return.

   series_eval(z_fp, w, terms) -> (c, s): the alternating Taylor sums for
   cos and sin of z = z_fp 2^-w at width w.
   power_step(powers, base, w) -> (sum_re, sum_im): `powers` and `base` hold
   N points as packed native int128 pairs (re, im), 32 bytes a point;
   each point's z_m in `powers` becomes floor(z_m z_1 / 2^w), componentwise,
   with z_1 from `base`, and the sums of the new components are returned.

   Overflow argument, for 0 <= w <= 125 (checked), so one = 2^w <= 2^125:
   - series_eval takes 0 <= z_fp < one (checked).  Then z2 = floor(z_fp^2 /
     one) < one, and every term t_j = floor(floor(t_{j-1} z2 / one) / d_j)
     is at most t_{j-1} < one, so each product t z2 is below 2^250 and
     fits the unsigned 256-bit product.  The terms do not increase and
     alternate in sign, so the running sums c and s stay in [0, one].  All
     the floored values are non-negative, so the floors are truncations.
   - power_step: with E_m the modulus bound of `_PowerSums` (ulp), every
     component of z_m and z_1 is at most 2^w + E_m in absolute value, and
     `counting` calls the kernel only while N (2^w + E_{m+1}) < 2^127.  So
     every input component is below 2^127 and its magnitude fits u128;
     a c, b s, a s and b c are below 2^254 in magnitude, and a sum or
     difference of two of them is below 2^255, which a two's-complement
     256-bit value holds.  Shifting it right by w is the floor division;
     the quotient, a component of z_{m+1}, is below 2^127, so its low 128
     bits are its value.  The sum of N such components is below
     N (2^w + E_{m+1}) < 2^127; a sum that overflows anyway raises
     OverflowError (the powers are then already replaced). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef __int128 i128;
typedef unsigned __int128 u128;
typedef struct {
    u128 hi, lo;
} u256;

#define MAX_WIDTH 125

static PyObject *k64; /* the int 64: an int128 crosses as (hi << 64) | lo */

static PyObject *i128_to_long(i128 v)
{
    PyObject *hi = PyLong_FromLongLong((long long)(v >> 64));
    PyObject *lo = PyLong_FromUnsignedLongLong((unsigned long long)v);
    PyObject *high = NULL, *res = NULL;
    if (hi && lo && (high = PyNumber_Lshift(hi, k64)))
        res = PyNumber_Or(high, lo);
    Py_XDECREF(hi);
    Py_XDECREF(lo);
    Py_XDECREF(high);
    return res;
}

/* v is an int in [0, 2^128); a negative v raises OverflowError. */
static int long_to_u128(PyObject *v, u128 *out)
{
    PyObject *hi = PyNumber_Rshift(v, k64);
    unsigned long long h;
    if (!hi)
        return -1;
    h = PyLong_AsUnsignedLongLong(hi);
    Py_DECREF(hi);
    if (h == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    *out = ((u128)h << 64) | PyLong_AsUnsignedLongLongMask(v);
    return 0;
}

static u256 mul_u128(u128 a, u128 b)
{
    u128 a0 = (unsigned long long)a, a1 = a >> 64;
    u128 b0 = (unsigned long long)b, b1 = b >> 64;
    u128 p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    u128 mid = (p00 >> 64) + (unsigned long long)p01 + (unsigned long long)p10;
    u256 r;
    r.lo = (mid << 64) | (unsigned long long)p00;
    r.hi = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    return r;
}

/* v += a b for |a|, |b| < 2^127, v a two's-complement 256-bit value; the
   four partial products are split at 2^64, signed above it, so no branch
   depends on a sign */
static void add_product(u256 *v, i128 a, i128 b)
{
    long long a1 = (long long)(a >> 64), b1 = (long long)(b >> 64);
    unsigned long long a0 = (unsigned long long)a, b0 = (unsigned long long)b;
    u128 p00 = (u128)a0 * b0, lo = v->lo;
    i128 p01 = (i128)a0 * b1, p10 = (i128)a1 * b0, p11 = (i128)a1 * b1;
    v->lo += p00;
    v->hi += (v->lo < lo) + (u128)p11;
    lo = v->lo;
    v->lo += (u128)(unsigned long long)p01 << 64;
    v->hi += (v->lo < lo) + (u128)(p01 >> 64);
    lo = v->lo;
    v->lo += (u128)(unsigned long long)p10 << 64;
    v->hi += (v->lo < lo) + (u128)(p10 >> 64);
}

/* the low 128 bits of floor(v / 2^w), 0 <= w <= 125: the quotient itself
   when it fits in 128 bits */
static u128 shift_u256(u256 v, int w)
{
    return w ? (v.lo >> w) | (v.hi << (128 - w)) : v.lo;
}

static PyObject *series_eval(PyObject *self, PyObject *args)
{
    PyObject *z_obj;
    int w, terms;
    u128 z, one, z2, t, d;
    i128 c, s;
    long long j;

    if (!PyArg_ParseTuple(args, "O!ii:series_eval", &PyLong_Type, &z_obj, &w, &terms))
        return NULL;
    if (w < 0 || w > MAX_WIDTH || terms < 1)
        return PyErr_Format(PyExc_ValueError, "series_eval needs 0 <= w <= %d and terms >= 1",
                            MAX_WIDTH);
    if (long_to_u128(z_obj, &z) < 0)
        return NULL;
    one = (u128)1 << w;
    if (z >= one)
        return PyErr_Format(PyExc_ValueError, "series_eval needs 0 <= z_fp < 2^w");
    z2 = shift_u256(mul_u128(z, z), w);
    c = (i128)one;
    t = one;
    for (j = 1; j < terms; j++) {
        d = (u128)(2 * j - 1) * (u128)(2 * j);
        t = shift_u256(mul_u128(t, z2), w) / d;
        c += j & 1 ? -(i128)t : (i128)t;
    }
    s = (i128)z;
    t = z;
    for (j = 1; j < terms; j++) {
        d = (u128)(2 * j) * (u128)(2 * j + 1);
        t = shift_u256(mul_u128(t, z2), w) / d;
        s += j & 1 ? -(i128)t : (i128)t;
    }
    /* on failure Py_BuildValue releases every N reference */
    return Py_BuildValue("(NN)", i128_to_long(c), i128_to_long(s));
}

static PyObject *power_step(PyObject *self, PyObject *args)
{
    Py_buffer powers, base;
    int w;
    Py_ssize_t i, count;
    i128 a, b, c, s, re, im, sum_re = 0, sum_im = 0;
    u256 x, y, zero = {0, 0};
    unsigned char *p;
    const unsigned char *q;
    int overflow = 0;

    if (!PyArg_ParseTuple(args, "w*y*i:power_step", &powers, &base, &w))
        return NULL;
    if (w < 0 || w > MAX_WIDTH || powers.len != base.len || powers.len % 32) {
        PyBuffer_Release(&powers);
        PyBuffer_Release(&base);
        return PyErr_Format(PyExc_ValueError, "power_step needs 0 <= w <= %d and two buffers"
                            " of the same whole number of 32-byte points", MAX_WIDTH);
    }
    count = powers.len / 32;
    p = powers.buf;
    q = base.buf;
    for (i = 0; i < count; i++, p += 32, q += 32) {
        memcpy(&a, p, 16);
        memcpy(&b, p + 16, 16);
        memcpy(&c, q, 16);
        memcpy(&s, q + 16, 16);
        x = zero;
        add_product(&x, a, c);
        add_product(&x, -b, s);
        y = zero;
        add_product(&y, a, s);
        add_product(&y, b, c);
        re = (i128)shift_u256(x, w);
        im = (i128)shift_u256(y, w);
        memcpy(p, &re, 16);
        memcpy(p + 16, &im, 16);
        overflow |= __builtin_add_overflow(sum_re, re, &sum_re);
        overflow |= __builtin_add_overflow(sum_im, im, &sum_im);
    }
    PyBuffer_Release(&powers);
    PyBuffer_Release(&base);
    if (overflow)
        return PyErr_Format(PyExc_OverflowError, "power_step sums left 128 bits");
    return Py_BuildValue("(NN)", i128_to_long(sum_re), i128_to_long(sum_im));
}

static PyMethodDef methods[] = {
    {"series_eval", series_eval, METH_VARARGS,
     "series_eval(z_fp, w, terms) -> (c, s): fixed-point Taylor sums of cos and sin"},
    {"power_step", power_step, METH_VARARGS,
     "power_step(powers, base, w) -> (sum_re, sum_im): one complex power step in place"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_weyl_c", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled Weyl-sum kernel for counting.",
};

PyMODINIT_FUNC PyInit__weyl_c(void)
{
    return (k64 = PyLong_FromLong(64)) ? PyModule_Create(&module) : NULL;
}
