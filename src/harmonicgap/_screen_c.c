/* Compiled screening kernel for the record scan: `_screen_py.screen_block`
   operation for operation, with the fixed-point accumulator in unsigned
   128-bit integers, returning identical (flags, m_run).

   Overflow argument, for F = frac_bits <= 126 (one = 2^F <= 2^126):
   - acc + cnt: the window grows only while acc + cnt < one, by one/t + 1
     with t >= 2 (the first window n = t = 1 has acc + cnt = one + 1), and
     shrinking lowers it, so acc + cnt < one + one/2 + 1 < 2^127.
   - n^2 * es_hi: acc + cnt - one <= one/t and t >= n give
     es_hi <= 2^(F-32)/n + 1, so n^2 * es_hi <= n * 2^94 + n^2 < 2^126 for
     n < 2^31; scaled_lo <= n^2 * es_hi.
   - tau * (n - 10) < 2^96 * 2^31 = 2^127 for tau_hi_fp < 2^96.
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
    long long n_start, n_end;
    int frac_bits, kind;
    PyObject *tau_obj, *flags, *flag;
    u128 n, t, one, tau, acc, cnt, m_run, es_lo, es_hi, scaled_lo, scaled_hi;

    if (!PyArg_ParseTuple(args, "LLiO!:screen_block", &n_start, &n_end, &frac_bits,
                          &PyLong_Type, &tau_obj) || long_to_u128(tau_obj, &tau) < 0)
        return NULL;
    if (n_start < 1 || n_end > (1LL << 31) || frac_bits < 0 || frac_bits > 126 || tau >> 96)
        return PyErr_Format(PyExc_ValueError, "screen_block needs n_start >= 1, n_end <= 2^31,"
                            " 0 <= frac_bits <= 126 and tau_hi_fp < 2^96");
    if (!(flags = PyList_New(0)))
        return NULL;

    one = (u128)1 << frac_bits;
    n = t = (u128)n_start;
    acc = one / n;
    cnt = 1;
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
            if (n > 10 && scaled_lo < tau * (n - 10) / n + 1)
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
    /* on failure Py_BuildValue releases both N references */
    return Py_BuildValue("(NN)", flags, u128_to_long(m_run));
}

static PyMethodDef methods[] = {
    {"screen_block", screen_block, METH_VARARGS,
     "screen_block(n_start, n_end, frac_bits, tau_hi_fp) -> (flags, m_run)"},
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
