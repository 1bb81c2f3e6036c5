"""Forward kernels whose tape formulation changed, against the old ones.

Every op has one forward kernel shared by the autograd tape (allocating)
and compiled plans (``out=``).  For the ops whose tape expression was
rewritten when the kernels were unified, the previous expressions are
copied here verbatim as oracles.  The kernels must reproduce them bit for
bit — values, dtype and memory layout — in both forms, and the ops' vjps
must be unchanged.
"""

import itertools

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F, ops_basic, ops_nn, ops_shape, sanitize
from repro.tensor.tensor import unbroadcast


def rng(seed=0):
    return np.random.default_rng(seed)


def assert_values(got, want):
    """Bitwise equality of values (NaN payloads and -0.0 too)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_same(got, want):
    """Bitwise equality of values and memory layout."""
    assert_values(got, want)
    got, want = np.asarray(got), np.asarray(want)
    if got.ndim and got.size > 1:
        assert got.strides == want.strides


def out_like(want):
    """A fresh buffer laid out like ``want`` (what a plan arena hands out)."""
    return np.empty_like(want)


# ----------------------------------------------------------------------
# Oracles: the previous tape expressions
# ----------------------------------------------------------------------
def _pad_spatial_ref(x, padding):
    pd, ph, pw = padding
    if pd == ph == pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))


def conv3d_forward_ref(x, w, stride, padding, groups):
    stride, padding = ops_nn._triple(stride), ops_nn._triple(padding)
    xp = _pad_spatial_ref(x, padding)
    cout, cg, kd, kh, kw = w.shape
    out_sizes = tuple(
        ops_nn._out_size(x.shape[2 + i], (kd, kh, kw)[i], stride[i], padding[i])
        for i in range(3))
    xg = ops_nn._grouped(xp, groups)
    wg = w.reshape(groups, cout // groups, cg, kd, kh, kw)
    voxels = int(np.prod(out_sizes))
    batch = x.shape[0]
    out = np.zeros((batch, groups, cout // groups, voxels), dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = ops_nn._offset_slices(offset, stride, out_sizes)
        patch = xg[(slice(None), slice(None), slice(None)) + sl]
        out += np.matmul(wg[:, :, :, offset[0], offset[1], offset[2]],
                         patch.reshape(batch, groups, cg, voxels))
    return out.reshape(batch, cout, *out_sizes)


def conv_transpose3d_forward_ref(x, w, stride, padding, output_padding, groups):
    stride, padding = ops_nn._triple(stride), ops_nn._triple(padding)
    output_padding = ops_nn._triple(output_padding)
    cin, og, kd, kh, kw = w.shape
    in_sizes = x.shape[2:]
    full_sizes = tuple(
        (in_sizes[i] - 1) * stride[i] + (kd, kh, kw)[i] + output_padding[i]
        for i in range(3))
    xg = ops_nn._grouped(x, groups)
    wg = w.reshape(groups, cin // groups, og, kd, kh, kw)
    batch = x.shape[0]
    voxels = int(np.prod(in_sizes))
    xm = xg.reshape(batch, groups, cin // groups, voxels)
    full = np.zeros((batch, groups, og) + full_sizes, dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = ops_nn._offset_slices(offset, stride, in_sizes)
        w_off = np.swapaxes(wg[:, :, :, offset[0], offset[1], offset[2]], -1, -2)
        contrib = np.matmul(w_off, xm).reshape(batch, groups, og, *in_sizes)
        full[(slice(None), slice(None), slice(None)) + sl] += contrib
    pd, ph, pw = padding
    crop = (slice(pd, full_sizes[0] - pd), slice(ph, full_sizes[1] - ph),
            slice(pw, full_sizes[2] - pw))
    out = full[(slice(None), slice(None), slice(None)) + crop]
    return out.reshape(x.shape[0], groups * og, *out.shape[3:])


def sigmoid_ref(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def softplus_ref(x):
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
    return out, sig


def leaky_relu_ref(x, negative_slope):
    scale = np.where(x >= 0, 1.0, negative_slope)
    return x * scale, scale


def maximum_ref(a, b):
    take_a = a >= b
    return np.where(take_a, a, b), take_a


def minimum_ref(a, b):
    take_a = a <= b
    return np.where(take_a, a, b), take_a


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
SPECIALS = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-300, -40.0, 40.0, 800.0, -800.0])


def elementwise_inputs():
    """Contiguous, transposed and special-valued operands."""
    base = rng(1).standard_normal((4, 5, 6)) * 3.0
    transposed = rng(2).standard_normal((6, 5, 4)).transpose(2, 1, 0) * 3.0
    special = np.resize(SPECIALS, (3, 10)).T.copy()
    return {"contiguous": base, "transposed": transposed, "special": special,
            "scalar": np.array(-1.5)}


ELEMENTWISE = elementwise_inputs()


@pytest.fixture(autouse=True)
def _special_values_allowed():
    # ±inf and NaN inputs are deliberate here; the tape sanitizer
    # (REPRO_SANITIZE=1) would reject them by design
    with np.errstate(all="ignore"), sanitize(False):
        yield


@pytest.mark.parametrize("case", sorted(ELEMENTWISE))
class TestUnaryKernels:
    def test_sigmoid(self, case):
        x = ELEMENTWISE[case]
        want = sigmoid_ref(x)
        assert_same(ops_basic.sigmoid_kernel(x), want)
        out = out_like(want)
        assert ops_basic.sigmoid_kernel(x, out=out) is out
        assert_same(out, want)
        # in place onto the input, as plan fusion does
        inplace = x.copy()
        assert ops_basic.sigmoid_kernel(inplace, out=inplace) is inplace
        assert inplace.tobytes() == want.tobytes()

    def test_softplus(self, case):
        x = ELEMENTWISE[case]
        want, _ = softplus_ref(x)
        assert_same(F.softplus_kernel(x), want)
        out = out_like(np.asarray(want))
        F.softplus_kernel(x, out=out)
        assert_same(out, want)

    @pytest.mark.parametrize("slope", [0.01, 0.2])
    def test_leaky_relu(self, case, slope):
        x = ELEMENTWISE[case]
        want, _ = leaky_relu_ref(x, slope)
        assert_same(F.leaky_relu_kernel(x, negative_slope=slope), want)
        out = out_like(np.asarray(want))
        F.leaky_relu_kernel(x, out=out, negative_slope=slope)
        assert_same(out, want)

    def test_unary_vjps(self, case):
        x = ELEMENTWISE[case]
        g = rng(3).standard_normal(x.shape)
        for op, want in (
            (lambda t: t.sigmoid(), lambda: g * sigmoid_ref(x) * (1.0 - sigmoid_ref(x))),
            (F.softplus, lambda: g * softplus_ref(x)[1]),
            (lambda t: F.leaky_relu(t, 0.1), lambda: g * leaky_relu_ref(x, 0.1)[1]),
        ):
            t = Tensor(x, requires_grad=True)
            op(t).backward(g)
            assert_values(t.grad, want())


SELECT_PAIRS = {
    "same_shape": (rng(4).standard_normal((4, 6)), rng(5).standard_normal((4, 6))),
    "broadcast": (rng(6).standard_normal((3, 1, 5)), rng(7).standard_normal((4, 1))),
    "scalar": (rng(8).standard_normal((3, 4)), np.array(0.0)),
    "transposed": (rng(9).standard_normal((5, 3)).T, rng(10).standard_normal((5, 3)).T),
    "specials": (SPECIALS.copy(), SPECIALS[::-1].copy()),
}


@pytest.mark.parametrize("case", sorted(SELECT_PAIRS))
class TestSelectKernels:
    @pytest.mark.parametrize("name", ["maximum", "minimum"])
    def test_forward_and_inplace(self, case, name):
        a, b = SELECT_PAIRS[case]
        kernel = getattr(ops_basic, f"{name}_kernel")
        want, _ = {"maximum": maximum_ref, "minimum": minimum_ref}[name](a, b)
        assert_same(kernel(a, b), want)
        out = out_like(want)
        kernel(a, b, out=out)
        assert_same(out, want)
        # fusion hands the kernel a dying input's own buffer as out
        for which in (0, 1):
            operands = [a.copy(), b.copy()]
            if operands[which].shape != want.shape:
                continue
            result = kernel(*operands, out=operands[which])
            assert result is operands[which]
            assert result.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["maximum", "minimum"])
    def test_vjps(self, case, name):
        a, b = SELECT_PAIRS[case]
        _, take_a = {"maximum": maximum_ref, "minimum": minimum_ref}[name](a, b)
        g = rng(11).standard_normal(take_a.shape)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        getattr(ops_basic, name)(ta, tb).backward(g)
        assert_values(ta.grad, unbroadcast(g * take_a, a.shape))
        assert_values(tb.grad, unbroadcast(g * ~take_a, b.shape))

    def test_where(self, case):
        a, b = SELECT_PAIRS[case]
        shape = np.broadcast_shapes(a.shape, b.shape)
        cond = rng(12).random(shape[-1:]) > 0.5
        want = np.where(cond, a, b)
        assert_same(ops_basic.where_kernel(a, b, cond=cond), want)
        out = out_like(want)
        ops_basic.where_kernel(a, b, out=out, cond=cond)
        assert_same(out, want)
        g = rng(13).standard_normal(want.shape)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        ops_basic.where(cond, ta, tb).backward(g)
        assert_values(ta.grad, unbroadcast(g * cond, a.shape))
        assert_values(tb.grad, unbroadcast(g * ~cond, b.shape))


class TestShapeKernels:
    @pytest.mark.parametrize("pad_width,value", [
        ([(0, 0), (1, 2), (2, 0)], 0.0), ([(1, 1), (0, 0), (3, 1)], -2.5)])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_pad(self, pad_width, value, layout):
        x = ELEMENTWISE[layout]
        want = np.pad(x, pad_width, constant_values=value)
        got = ops_shape.pad_kernel(x, pad_width=pad_width, constant_value=value)
        assert_same(got, want)
        out = out_like(want)
        ops_shape.pad_kernel(x, out=out, pad_width=pad_width, constant_value=value)
        assert_same(out, want)
        t = Tensor(x, requires_grad=True)
        g = rng(14).standard_normal(want.shape)
        ops_shape.pad(t, pad_width, value).backward(g)
        assert_values(t.grad, g[tuple(slice(lo, n - hi) for (lo, hi), n
                                    in zip(pad_width, want.shape))])

    @pytest.mark.parametrize("repeats,axis", [(2, 0), (3, 1), (2, -1)])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_repeat_interleave(self, repeats, axis, layout):
        x = ELEMENTWISE[layout]
        want = np.repeat(x, repeats, axis=axis)
        assert_same(ops_shape.repeat_interleave_kernel(x, repeats=repeats, axis=axis), want)
        out = out_like(want)
        ops_shape.repeat_interleave_kernel(x, out=out, repeats=repeats, axis=axis)
        assert_same(out, want)

    def test_repeat_interleave_vjp(self):
        x = ELEMENTWISE["contiguous"]
        t = Tensor(x, requires_grad=True)
        g = rng(15).standard_normal((4, 10, 6))
        ops_shape.repeat_interleave(t, 2, axis=1).backward(g)
        assert_values(t.grad, g.reshape(4, 5, 2, 6).sum(axis=2))


# ----------------------------------------------------------------------
# Convolutions
# ----------------------------------------------------------------------
CONV_CASES = [
    # (cin, cout, groups, kernel, stride, padding)
    (4, 6, 1, (3, 3, 3), (1, 1, 1), 1),
    (4, 6, 1, (3, 3, 3), (1, 2, 2), 0),
    (4, 6, 2, (1, 3, 3), (1, 2, 2), (1, 2, 2)),
    (4, 4, 4, (3, 3, 3), (1, 1, 1), 1),           # depthwise
    (4, 4, 4, (1, 1, 3), (1, 1, 1), (0, 0, 1)),   # depthwise 1-D
    (4, 8, 1, (1, 1, 1), (1, 1, 1), 0),           # pointwise: patches are views
]
CONV_IDS = ["g1-s1-p1", "g1-s122-p0", "g2-s122-p122", "dw-p1", "dw1d", "pointwise"]


def conv_input(cin, layout, seed=16):
    shape = (2, cin, 3, 7, 6)
    if layout == "contiguous":
        return rng(seed).standard_normal(shape)
    # the same shape as a non-contiguous (transposed) view
    return rng(seed).standard_normal(shape[::-1]).transpose(4, 3, 2, 1, 0)


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("cin,cout,groups,kernel,stride,padding", CONV_CASES, ids=CONV_IDS)
class TestConvKernels:
    def test_conv3d_forward(self, layout, cin, cout, groups, kernel, stride, padding):
        x = conv_input(cin, layout)
        w = rng(17).standard_normal((cout, cin // groups) + kernel)
        want = conv3d_forward_ref(x, w, stride, padding, groups)
        assert_same(ops_nn.conv3d_forward(x, w, stride, padding, groups), want)
        out = np.empty(want.shape)
        assert ops_nn.conv3d_forward(x, w, stride, padding, groups, out=out) is out
        assert_same(out, want)

    def test_conv3d_vjps(self, layout, cin, cout, groups, kernel, stride, padding):
        x = conv_input(cin, layout)
        w = rng(18).standard_normal((cout, cin // groups) + kernel)
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = ops_nn.conv3d(tx, tw, stride=stride, padding=padding, groups=groups)
        g = rng(19).standard_normal(out.shape)
        out.backward(g)
        assert_values(tx.grad, ops_nn.conv3d_grad_input(g, w, x.shape, stride, padding, groups))
        assert_values(tw.grad, ops_nn.conv3d_grad_weight(g, x, w.shape, stride, padding, groups))

    @pytest.mark.parametrize("output_padding", [0, 1])
    def test_conv_transpose3d_forward(self, layout, cin, cout, groups, kernel, stride,
                                      padding, output_padding):
        if output_padding and max(stride) == 1:
            pytest.skip("output_padding needs a stride > 1")
        output_padding = tuple(min(output_padding, s - 1) for s in stride)
        x = conv_input(cin, layout)
        w = rng(20).standard_normal((cin, cout // groups) + kernel)
        args = (stride, padding, output_padding, groups)
        want = conv_transpose3d_forward_ref(x, w, *args)
        got = ops_nn.conv_transpose3d_forward(x, w, *args)
        # the result keeps the cropped-view layout of the scatter buffer
        assert_same(got, want)
        assert (got.base is None) == (want.base is None)
        work = np.empty_like(want.base if want.base is not None else want)
        got = ops_nn.conv_transpose3d_forward(x, w, *args, out=work)
        assert np.shares_memory(got, work)
        assert_same(got, want)

    def test_conv_transpose3d_vjps(self, layout, cin, cout, groups, kernel, stride, padding):
        x = conv_input(cin, layout)
        w = rng(21).standard_normal((cin, cout // groups) + kernel)
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = ops_nn.conv_transpose3d(tx, tw, stride=stride, padding=padding, groups=groups)
        g = rng(22).standard_normal(out.shape)
        out.backward(g)
        args = (stride, padding, 0, groups)
        assert_values(tx.grad, ops_nn.conv_transpose3d_grad_input(g, w, x.shape, *args))
        assert_values(tw.grad, ops_nn.conv_transpose3d_grad_weight(g, x, w.shape, *args))


def test_conv_transpose3d_padded_result_is_a_strided_view():
    x = conv_input(4, "contiguous")
    w = rng(23).standard_normal((4, 3, 3, 3, 3))
    got = ops_nn.conv_transpose3d_forward(x, w, (1, 2, 2), 1, (0, 1, 1), 1)
    assert not got.flags["C_CONTIGUOUS"] and got.base is not None
    assert got.base.shape == (2, 1, 3) + tuple(
        (n - 1) * s + 3 + op for n, s, op in zip(x.shape[2:], (1, 2, 2), (0, 1, 1)))
