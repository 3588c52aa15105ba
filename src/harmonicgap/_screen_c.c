/* Compiled screening kernel for the record scan: `_screen_py.screen_block`
   operation for operation, returning the identical (flags, F).

   F = frac(z(n)) 2^128, for z(n) = e n - (1+e)/2, is kept in an unsigned
   128-bit integer, so one wrapping addition of floor(e 2^128) per n drops
   the integer part; n is flagged when F >= cut (`_screen` explains the
   bound).  n is a signed 64-bit integer, so blocks reach past 2^40 and up
   to 2^63 - 1; n_start must be at least 1 and frac, step and cut must lie
   in [0, 2^128), and anything else raises. */

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

/* v is an int; v < 0 or v >= 2^128 raises OverflowError in PyLong_AsUnsignedLongLong. */
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
    long long n_start, n_end, n;
    PyObject *frac_obj, *step_obj, *cut_obj, *flags, *flag;
    u128 frac, step, cut;

    if (!PyArg_ParseTuple(args, "LLO!O!O!:screen_block", &n_start, &n_end, &PyLong_Type, &frac_obj,
                          &PyLong_Type, &step_obj, &PyLong_Type, &cut_obj)
        || long_to_u128(frac_obj, &frac) < 0 || long_to_u128(step_obj, &step) < 0
        || long_to_u128(cut_obj, &cut) < 0)
        return NULL;
    if (n_start < 1)
        return PyErr_Format(PyExc_ValueError, "screen_block needs n_start >= 1");
    if (!(flags = PyList_New(0)))
        return NULL;
    for (n = n_start; n < n_end; n++) {
        if (frac >= cut) {
            flag = PyLong_FromLongLong(n);
            if (!flag || PyList_Append(flags, flag) < 0) {
                Py_XDECREF(flag);
                Py_DECREF(flags);
                return NULL;
            }
            Py_DECREF(flag);
        }
        frac += step;
    }
    /* on failure Py_BuildValue releases both N references */
    return Py_BuildValue("(NN)", flags, u128_to_long(frac));
}

static PyMethodDef methods[] = {
    {"screen_block", screen_block, METH_VARARGS,
     "screen_block(n_start, n_end, frac, step, cut) -> (flags, F for n_end)"},
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
