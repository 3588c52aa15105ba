/* Compiled screening kernel for the record scan: `_screen_py.screen_block`
   operation for operation, with the fixed-point accumulator in unsigned
   128-bit integers, returning identical (flags, m_run, t, acc).

   A block starts from the window (t, acc) it is given, or from the empty
   window (n_start - 1, 0), and returns the window it ends with.  A passed
   window must have t >= n_start - 1 and acc + cnt < one, cnt = t - n_start + 1
   (checked), so acc < one; every window a kernel returns satisfies this.

   Overflow argument, for F = frac_bits <= 126 (one = 2^F <= 2^126), when acc
   is the true window sum, as in every window a kernel returns:
   - acc + cnt: it starts below one, the window grows only while
     acc + cnt < one, by one/t + 1 <= one + 1, and shrinking lowers it below
     one again (T(n) > T(n - 1) in `_screen_py`), so acc + cnt < 2*one + 1.
   - n^2 * es_hi: every n grows the window at least once, so
     acc + cnt - one <= one/t with t >= n, and es_hi <= 2^(F-32)/n + 1 gives
     n^2 * es_hi <= n * 2^94 + n^2 < 2^126 for n < 2^31; scaled_lo <= n^2 * es_hi.
   - the connection test scaled_lo <= tau && scaled_lo * n <= tau * (n - 10)
     is scaled_lo < tau * (n - 10) / n + 1 with no division; both products
     are below 2^96 * 2^31 = 2^127 for tau_hi_fp < 2^96.
   A passed acc that is not the true sum can make `acc -= one / n` wrap:
   unsigned arithmetic keeps that defined, but the flags then mean nothing.
   Other arguments raise; the selector in `_screen` sends such blocks to
   the pure kernel. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned __int128 u128;

static PyObject *k64; /* the int 64: a u128 crosses as (hi << 64) | lo */

static PyObject *u128_to_long(u128 v)
{
    PyObject *hi = PyLong_FromUnsignedLongLong((unsigned long long)(v >> 64));
    PyObject *lo = PyLong_FromUnsignedLongLong((unsigned long long)v);
    PyObject *high = NULL, *res = NULL;
    if (hi && lo && (high = PyNumber_Lshift(hi, k64)))
        res = PyNumber_Or(high, lo);
    Py_XDECREF(hi);
    Py_XDECREF(lo);
    Py_XDECREF(high);
    return res;
}

/* v is an int; a negative v raises OverflowError in PyLong_AsUnsignedLongLong. */
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

static PyObject *screen_block(PyObject *self, PyObject *args)
{
    long long n_start, n_end, t0;
    int frac_bits, kind;
    PyObject *tau_obj, *window = Py_None, *acc_obj, *flags, *flag;
    u128 n, t, one, tau, acc = 0, cnt, m_run, es_lo, es_hi, scaled_lo, scaled_hi;

    if (!PyArg_ParseTuple(args, "LLiO!|O:screen_block", &n_start, &n_end, &frac_bits,
                          &PyLong_Type, &tau_obj, &window) || long_to_u128(tau_obj, &tau) < 0)
        return NULL;
    if (n_start < 1 || n_end > (1LL << 31) || frac_bits < 0 || frac_bits > 126 || tau >> 96)
        return PyErr_Format(PyExc_ValueError, "screen_block needs n_start >= 1, n_end <= 2^31,"
                            " 0 <= frac_bits <= 126 and tau_hi_fp < 2^96");
    one = (u128)1 << frac_bits;
    t0 = n_start - 1;
    if (window != Py_None) {
        if (!PyTuple_Check(window))
            return PyErr_Format(PyExc_TypeError, "screen_block window must be a (t, acc) tuple");
        if (!PyArg_ParseTuple(window, "LO!:screen_block window", &t0, &PyLong_Type, &acc_obj)
            || long_to_u128(acc_obj, &acc) < 0)
            return NULL;
    }
    if (t0 < n_start - 1 || acc >= one || (u128)(t0 - n_start + 1) >= one - acc)
        return PyErr_Format(PyExc_ValueError, "window needs t >= n_start - 1, acc >= 0"
                            " and acc + cnt < 2^frac_bits");
    if (!(flags = PyList_New(0)))
        return NULL;

    n = (u128)n_start;
    t = (u128)t0;
    cnt = t - n + 1;
    m_run = (u128)1 << 126;
    for (; (long long)n < n_end; n++) {
        while (acc + cnt < one) {
            t++;
            acc += one / t;
            cnt++;
        }
        kind = 0;
        scaled_lo = 0;
        if (acc >= one) {
            es_lo = (acc - one) >> 32;
            es_hi = ((acc + cnt - one) >> 32) + 1;
            scaled_lo = n * n * es_lo;
            if (scaled_lo < m_run)
                kind |= 1;
            if (n > 10 && scaled_lo <= tau && scaled_lo * n <= tau * (n - 10))
                kind |= 2;
        } else {
            kind = 1 | 2;
            es_hi = ((one / t) >> 32) + 1;
        }
        scaled_hi = n * n * es_hi;
        if (scaled_hi < m_run)
            m_run = scaled_hi;
        if (kind) {
            flag = Py_BuildValue("(KKiN)", (unsigned long long)n, (unsigned long long)t, kind,
                                 u128_to_long(scaled_lo));
            if (!flag || PyList_Append(flags, flag) < 0) {
                Py_XDECREF(flag);
                Py_DECREF(flags);
                return NULL;
            }
            Py_DECREF(flag);
        }
        acc -= one / n;
        cnt--;
    }
    /* on failure Py_BuildValue releases every N reference */
    return Py_BuildValue("(NNKN)", flags, u128_to_long(m_run), (unsigned long long)t,
                         u128_to_long(acc));
}

static PyMethodDef methods[] = {
    {"screen_block", screen_block, METH_VARARGS,
     "screen_block(n_start, n_end, frac_bits, tau_hi_fp, window=None) -> (flags, m_run, t, acc)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_screen_c", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled screening kernel for the record scan.",
};

PyMODINIT_FUNC PyInit__screen_c(void)
{
    return (k64 = PyLong_FromLong(64)) ? PyModule_Create(&module) : NULL;
}
