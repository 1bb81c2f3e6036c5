"""Shape-manipulation primitives with backward rules.

View ops register ``view=True`` kernels: a compiled plan resolves them at
compile time into views of arena buffers, and only replays their
``out=`` form when numpy had to copy.
"""

from __future__ import annotations

import numpy as np

from .plan import register_kernel
from .tensor import Tensor, ensure_tensor


# numpy's views are their own kernels: they never copy, so need no out=
register_kernel("transpose", view=True)(np.transpose)
register_kernel("swapaxes", view=True)(np.swapaxes)
register_kernel("moveaxis", view=True)(np.moveaxis)
register_kernel("flip", view=True)(np.flip)


@register_kernel("reshape", view=True)
def reshape_kernel(x, out=None, *, shape):
    if out is None:
        return x.reshape(shape)
    # a strided source: copy through a view of ``out`` in the source's shape
    np.copyto(out.reshape(x.shape), x)
    return out


def reshape(a, *shape) -> Tensor:
    """Return a view of ``a`` with a new shape."""
    a = ensure_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = reshape_kernel(a.data, shape=shape)
    return Tensor.from_op(out, [(a, lambda g: g.reshape(a.shape))],
                          capture=("reshape", {"shape": out.shape}))


def transpose(a, axes=None) -> Tensor:
    """Permute dimensions (numpy ``transpose`` semantics)."""
    a = ensure_tensor(a)
    out = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)
    return Tensor.from_op(out, [(a, lambda g: np.transpose(g, inverse))],
                          capture=("transpose", {"axes": axes}))


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    """Swap two dimensions."""
    a = ensure_tensor(a)
    out = np.swapaxes(a.data, axis1, axis2)
    return Tensor.from_op(out, [(a, lambda g: np.swapaxes(g, axis1, axis2))],
                          capture=("swapaxes", {"axis1": axis1, "axis2": axis2}))


def moveaxis(a, source: int, destination: int) -> Tensor:
    """Move a dimension to a new position."""
    a = ensure_tensor(a)
    out = np.moveaxis(a.data, source, destination)
    return Tensor.from_op(out, [(a, lambda g: np.moveaxis(g, destination, source))],
                          capture=("moveaxis", {"source": source,
                                                "destination": destination}))


@register_kernel("getitem", view=True)
def getitem_kernel(x, *, index):
    """No out= form: basic indexing is a view, and advanced indexing
    (which copies) is not capturable."""
    return x[index]


def getitem(a, index) -> Tensor:
    """Basic indexing/slicing; gradient scatters back into place."""
    a = ensure_tensor(a)
    out = getitem_kernel(a.data, index=index)

    def vjp(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, index, g)
        return grad

    return Tensor.from_op(out, [(a, vjp)], capture=("getitem", {"index": index}))


@register_kernel("concatenate")
def concatenate_kernel(*arrays, out=None, axis):
    return np.concatenate(arrays, axis=axis, out=out)


def concatenate(tensors, axis: int = 0) -> Tensor:
    """Join tensors along an existing axis."""
    tensors = [ensure_tensor(t) for t in tensors]
    out = concatenate_kernel(*[t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(tensors):
        def vjp(g, i=i):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(slicer)]
        parents.append((t, vjp))
    return Tensor.from_op(out, parents, capture=("concatenate", {"axis": axis}))


@register_kernel("stack")
def stack_kernel(*arrays, out=None, axis):
    return np.stack(arrays, axis=axis, out=out)


def stack(tensors, axis: int = 0) -> Tensor:
    """Join tensors along a new axis."""
    tensors = [ensure_tensor(t) for t in tensors]
    out = stack_kernel(*[t.data for t in tensors], axis=axis)
    parents = []
    for i, t in enumerate(tensors):
        def vjp(g, i=i):
            return np.take(g, i, axis=axis)
        parents.append((t, vjp))
    return Tensor.from_op(out, parents, capture=("stack", {"axis": axis}))


@register_kernel("pad")
def pad_kernel(x, out=None, *, pad_width, constant_value):
    """Constant fill, then the interior copy (``np.pad``'s memory order)."""
    if out is None:
        out = np.empty(tuple(n + lo + hi for n, (lo, hi) in zip(x.shape, pad_width)),
                       dtype=x.dtype, order="F" if x.flags.fnc else "C")
    out.fill(constant_value)
    out[tuple(slice(lo, lo + n) for (lo, _), n in zip(pad_width, x.shape))] = x
    return out


def pad(a, pad_width, constant_value: float = 0.0) -> Tensor:
    """Constant-pad; gradient crops the padding back off."""
    a = ensure_tensor(a)
    pad_width = [(int(lo), int(hi)) for lo, hi in pad_width]
    out = pad_kernel(a.data, pad_width=pad_width, constant_value=constant_value)

    def vjp(g):
        slicer = tuple(slice(lo, g.shape[i] - hi) for i, (lo, hi) in enumerate(pad_width))
        return g[slicer]

    return Tensor.from_op(out, [(a, vjp)],
                          capture=("pad", {"pad_width": pad_width,
                                           "constant_value": constant_value}))


def flip(a, axis) -> Tensor:
    """Reverse along the given axis/axes."""
    a = ensure_tensor(a)
    out = np.flip(a.data, axis=axis)
    return Tensor.from_op(out, [(a, lambda g: np.flip(g, axis=axis))],
                          capture=("flip", {"axis": axis}))


@register_kernel("broadcast_to")
def broadcast_to_kernel(x, out=None, *, shape):
    src = np.broadcast_to(x, shape)
    if out is None:
        return src.copy()
    np.copyto(out, src)
    return out


def broadcast_to(a, shape) -> Tensor:
    """Broadcast ``a`` to ``shape``; gradient sums over broadcast axes."""
    from .tensor import unbroadcast

    a = ensure_tensor(a)
    out = broadcast_to_kernel(a.data, shape=shape)
    return Tensor.from_op(out, [(a, lambda g: unbroadcast(g, a.shape))],
                          capture=("broadcast_to", {"shape": out.shape}))


@register_kernel("repeat_interleave")
def repeat_interleave_kernel(x, out=None, *, repeats, axis):
    """``np.repeat`` as one broadcast copy into a blocked view of ``out``."""
    axis %= x.ndim
    if out is None:
        shape = list(x.shape)
        shape[axis] *= repeats
        out = np.empty(shape, dtype=x.dtype)
    blocks = out.reshape(x.shape[:axis + 1] + (repeats,) + x.shape[axis + 1:])
    np.copyto(blocks, x.reshape(x.shape[:axis + 1] + (1,) + x.shape[axis + 1:]))
    return out


def repeat_interleave(a, repeats: int, axis: int) -> Tensor:
    """Repeat each element ``repeats`` times along ``axis``.

    This is the building block for nearest-neighbour upsampling; the
    gradient sums each block of repeated entries.
    """
    a = ensure_tensor(a)
    out = repeat_interleave_kernel(a.data, repeats=repeats, axis=axis)

    def vjp(g):
        new_shape = list(a.shape)
        new_shape.insert(axis + 1, repeats)
        return g.reshape(new_shape).sum(axis=axis + 1)

    return Tensor.from_op(out, [(a, vjp)],
                          capture=("repeat_interleave", {"repeats": repeats,
                                                         "axis": axis}))


def split(a, sections: int, axis: int = 0) -> list[Tensor]:
    """Split into ``sections`` equal chunks along ``axis``."""
    a = ensure_tensor(a)
    if a.shape[axis] % sections:
        raise ValueError(f"axis {axis} of size {a.shape[axis]} not divisible by {sections}")
    step = a.shape[axis] // sections
    chunks = []
    for i in range(sections):
        slicer = [slice(None)] * a.ndim
        slicer[axis] = slice(i * step, (i + 1) * step)
        chunks.append(getitem(a, tuple(slicer)))
    return chunks


def _install_methods():
    Tensor.reshape = reshape
    Tensor.transpose = transpose
    Tensor.swapaxes = swapaxes
    Tensor.moveaxis = moveaxis
    Tensor.__getitem__ = getitem
    Tensor.flip = flip


_install_methods()
