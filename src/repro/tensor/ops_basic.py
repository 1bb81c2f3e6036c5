"""Elementwise and linear-algebra primitives with backward rules.

Every function here takes/returns :class:`~repro.tensor.tensor.Tensor`
objects and registers the vector-Jacobian products needed for reverse-
mode differentiation.  Methods and operator overloads are attached onto
``Tensor`` at the bottom of the module.

Each op computes its forward through one kernel, ``kernel(*arrays,
out=None, **params)``, registered with :func:`repro.tensor.plan.register_kernel`
under the op's capture name; compiled plans replay the same kernel into
arena buffers.  Plain ufuncs are their own kernels.
"""

from __future__ import annotations

import numpy as np

from .plan import register_kernel
from .tensor import Tensor, copy_kernel, ensure_tensor, unbroadcast


def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.add(a.data, b.data)
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g, a.shape)),
        (b, lambda g: unbroadcast(g, b.shape)),
    ], capture=("add", {}))


def sub(a, b) -> Tensor:
    """Elementwise ``a - b``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.subtract(a.data, b.data)
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g, a.shape)),
        (b, lambda g: unbroadcast(-g, b.shape)),
    ], capture=("sub", {}))


def mul(a, b) -> Tensor:
    """Elementwise ``a * b``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.multiply(a.data, b.data)
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g * b.data, a.shape)),
        (b, lambda g: unbroadcast(g * a.data, b.shape)),
    ], capture=("mul", {}))


def div(a, b) -> Tensor:
    """Elementwise ``a / b``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.divide(a.data, b.data)
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g / b.data, a.shape)),
        (b, lambda g: unbroadcast(-g * a.data / (b.data ** 2), b.shape)),
    ], capture=("div", {}))


def neg(a) -> Tensor:
    """Elementwise ``-a``."""
    a = ensure_tensor(a)
    return Tensor.from_op(np.negative(a.data), [(a, lambda g: -g)],
                          capture=("neg", {}))


@register_kernel("pow", inplace=(0,))
def power_kernel(x, out=None, *, exponent):
    return np.power(x, exponent, out=out)


def pow_(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant scalar exponent."""
    a = ensure_tensor(a)
    out = power_kernel(a.data, exponent=exponent)
    return Tensor.from_op(out, [
        (a, lambda g: g * exponent * a.data ** (exponent - 1)),
    ], capture=("pow", {"exponent": exponent}))


def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = ensure_tensor(a)
    out = np.exp(a.data)
    return Tensor.from_op(out, [(a, lambda g: g * out)], capture=("exp", {}))


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = ensure_tensor(a)
    out = np.log(a.data)
    return Tensor.from_op(out, [(a, lambda g: g / a.data)], capture=("log", {}))


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = ensure_tensor(a)
    out = np.sqrt(a.data)
    return Tensor.from_op(out, [(a, lambda g: g * 0.5 / out)],
                          capture=("sqrt", {}))


def tanh(a) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = ensure_tensor(a)
    out = np.tanh(a.data)
    return Tensor.from_op(out, [(a, lambda g: g * (1.0 - out ** 2))],
                          capture=("tanh", {}))


@register_kernel("sigmoid", inplace=(0,))
def sigmoid_kernel(x, out=None):
    """``1/(1+e)`` where ``x >= 0`` else ``e/(1+e)``, with ``e = exp(-|x|)``.

    Temporaries are explicit arrays so 0-d inputs stay arrays too.
    """
    positive = np.greater_equal(x, 0)
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = np.add(1.0, e, out=np.empty_like(e))
    if out is None:
        out = np.empty_like(e)
    np.divide(e, denom, out=out)
    np.divide(1.0, denom, out=denom)
    np.copyto(out, denom, where=positive)
    return out


def sigmoid(a) -> Tensor:
    """Numerically stable logistic sigmoid."""
    a = ensure_tensor(a)
    out = sigmoid_kernel(a.data)
    return Tensor.from_op(out, [(a, lambda g: g * out * (1.0 - out))],
                          capture=("sigmoid", {}))


def abs_(a) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the kink)."""
    a = ensure_tensor(a)
    out = np.abs(a.data)
    return Tensor.from_op(out, [(a, lambda g: g * np.sign(a.data))],
                          capture=("abs", {}))


def _select(mask, a, b, out):
    """``np.where(mask, a, b)`` by masked copies.

    ``out`` may be ``a`` or ``b`` itself (in-place fusion): the mask is
    computed before the call, so only the other operand is copied in.
    Allocating, the result takes the layout ``np.where`` gives it.
    """
    if out is None:
        out = np.nditer(
            (mask, a, b, None), flags=("zerosize_ok",),
            op_flags=(("readonly",),) * 3 + (("writeonly", "allocate"),),
            op_dtypes=(None, None, None, np.result_type(a, b))).operands[3]
    if out is a:
        np.copyto(out, b, where=~mask)
    elif out is b:
        np.copyto(out, a, where=mask)
    else:
        np.copyto(out, b)
        np.copyto(out, a, where=mask)
    return out


@register_kernel("maximum", inplace=(0, 1))
def maximum_kernel(a, b, out=None):
    return _select(np.greater_equal(a, b), a, b, out)


@register_kernel("minimum", inplace=(0, 1))
def minimum_kernel(a, b, out=None):
    return _select(np.less_equal(a, b), a, b, out)


def _select_grads(a, b, mask_fn):
    """vjps of a select whose mask ``mask_fn()`` picks ``a``."""
    return [
        (a, lambda g: unbroadcast(g * mask_fn(), a.shape)),
        (b, lambda g: unbroadcast(g * ~mask_fn(), b.shape)),
    ]


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties route gradient to the first argument."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = maximum_kernel(a.data, b.data)
    return Tensor.from_op(out, _select_grads(a, b, lambda: np.greater_equal(a.data, b.data)),
                          capture=("maximum", {}))


def minimum(a, b) -> Tensor:
    """Elementwise minimum; ties route gradient to the first argument."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = minimum_kernel(a.data, b.data)
    return Tensor.from_op(out, _select_grads(a, b, lambda: np.less_equal(a.data, b.data)),
                          capture=("minimum", {}))


@register_kernel("clip", inplace=(0,))
def clip_kernel(x, out=None, *, low, high):
    return np.clip(x, low, high, out=out)


def clip(a, low: float | None, high: float | None) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is zero outside."""
    a = ensure_tensor(a)
    out = clip_kernel(a.data, low=low, high=high)
    inside = np.ones_like(a.data, dtype=bool)
    if low is not None:
        inside &= a.data >= low
    if high is not None:
        inside &= a.data <= high
    return Tensor.from_op(out, [(a, lambda g: g * inside)],
                          capture=("clip", {"low": low, "high": high}))


@register_kernel("where", inplace=(0, 1))
def where_kernel(a, b, out=None, *, cond):
    return _select(cond, a, b, out)


def where(condition, a, b) -> Tensor:
    """Select ``a`` where ``condition`` else ``b``; condition is constant.

    A Tensor condition is data-dependent, so it is recorded as a traced
    parameter, which plan capture rejects.
    """
    cond = condition.data.astype(bool) if isinstance(condition, Tensor) else np.asarray(condition, dtype=bool)
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = where_kernel(a.data, b.data, cond=cond)
    return Tensor.from_op(out, _select_grads(a, b, lambda: cond),
                          capture=("where", {"cond": condition if isinstance(condition, Tensor) else cond}))


def matmul(a, b) -> Tensor:
    """Matrix product with numpy ``@`` semantics (batched supported)."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.matmul(a.data, b.data)

    def grad_a(g):
        if b.data.ndim == 1:
            ga = np.multiply.outer(g, b.data) if a.data.ndim > 1 else g * b.data
        else:
            ga = g @ np.swapaxes(b.data, -1, -2)
        return unbroadcast(ga, a.shape)

    def grad_b(g):
        if a.data.ndim == 1 and b.data.ndim == 1:
            gb = g * a.data
        elif a.data.ndim == 1:
            gb = np.multiply.outer(a.data, g) if b.data.ndim == 2 else np.einsum("...m,n->...nm", g, a.data)
        elif b.data.ndim == 1:
            gb = np.einsum("...ij,...i->...j", a.data, g)
            if gb.ndim > 1:
                gb = gb.reshape(-1, gb.shape[-1]).sum(axis=0)
        else:
            gb = np.swapaxes(a.data, -1, -2) @ g
        return unbroadcast(gb, b.shape)

    return Tensor.from_op(out, [(a, grad_a), (b, grad_b)],
                          capture=("matmul", {}))


@register_kernel("einsum", blas=True)
def einsum_kernel(*operands, out=None, subscripts):
    return np.einsum(subscripts, *operands, out=out)


def einsum(subscripts: str, *operands) -> Tensor:
    """Differentiable :func:`numpy.einsum` (explicit subscripts, no ellipsis).

    The backward rule swaps the output subscript with each operand's
    subscript in turn, which is valid whenever every operand index also
    appears in the output or another operand (true for all uses here).
    """
    tensors = [ensure_tensor(op) for op in operands]
    inputs, arrow, output = subscripts.partition("->")
    if not arrow:
        raise ValueError("einsum requires explicit '->' output subscripts")
    in_specs = inputs.split(",")
    if len(in_specs) != len(tensors):
        raise ValueError("einsum operand count mismatch")
    out = einsum_kernel(*[t.data for t in tensors], subscripts=subscripts)

    parents = []
    for i, t in enumerate(tensors):
        def vjp(g, i=i, t=t):
            other_specs = [in_specs[j] for j in range(len(tensors)) if j != i]
            other_data = [tensors[j].data for j in range(len(tensors)) if j != i]
            spec = ",".join([output] + other_specs) + "->" + in_specs[i]
            needs_sum = set(in_specs[i]) - set(output) - set("".join(other_specs))
            if needs_sum:
                raise ValueError(f"einsum backward: operand index {needs_sum} summed away; unsupported")
            return np.einsum(spec, g, *other_data)
        parents.append((t, vjp))
    return Tensor.from_op(out, parents,
                          capture=("einsum", {"subscripts": subscripts}))


for _name, _ufunc in (("add", np.add), ("sub", np.subtract),
                      ("mul", np.multiply), ("div", np.divide)):
    register_kernel(_name, inplace=(0, 1))(_ufunc)
for _name, _ufunc in (("neg", np.negative), ("exp", np.exp), ("log", np.log),
                      ("sqrt", np.sqrt), ("tanh", np.tanh), ("abs", np.abs)):
    register_kernel(_name, inplace=(0,))(_ufunc)
register_kernel("matmul", blas=True)(np.matmul)
register_kernel("copy")(copy_kernel)


def _install_operators():
    Tensor.__add__ = add
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = sub
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = mul
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = div
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = neg
    Tensor.__pow__ = pow_
    Tensor.__matmul__ = matmul
    Tensor.exp = exp
    Tensor.log = log
    Tensor.sqrt = sqrt
    Tensor.tanh = tanh
    Tensor.sigmoid = sigmoid
    Tensor.abs = abs_
    Tensor.clip = clip


_install_operators()
