"""Convolution primitives (1D/3D, grouped, transposed) with backward rules.

All convolutions are implemented with a loop over kernel offsets: for a
``kd x kh x kw`` kernel the forward pass is ``kd*kh*kw`` strided einsums,
which is both memory-friendly (no im2col blowup) and fast for the small
kernels used in this project.  The same offset loop, run in scatter mode,
yields the input gradient and the transposed convolution.

Shape conventions follow torch:

* ``conv3d``:            x ``(B, Cin, D, H, W)``, w ``(Cout, Cin/G, kd, kh, kw)``
* ``conv_transpose3d``:  x ``(B, Cin, D, H, W)``, w ``(Cin, Cout/G, kd, kh, kw)``
* ``conv1d``:            x ``(B, Cin, L)``,       w ``(Cout, Cin/G, k)``
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .plan import _out_form_is_bitwise, register_kernel
from .tensor import Tensor, ensure_tensor


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 3:
            raise ValueError(f"expected 3 values, got {value!r}")
        return tuple(map(int, value))
    return (int(value),) * 3


def _hashable(value):
    """A conv size argument as a cache key (lists become tuples)."""
    return tuple(value) if isinstance(value, list) else value


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _grouped(x: np.ndarray, groups: int) -> np.ndarray:
    """View (B, C, *spatial) as (B, G, C/G, *spatial)."""
    b, c = x.shape[:2]
    return x.reshape(b, groups, c // groups, *x.shape[2:])


def _pad_spatial(x: np.ndarray, padding) -> np.ndarray:
    pd, ph, pw = padding
    if pd == ph == pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))


def _offset_slices(offset, stride, out_sizes):
    """Slices selecting the input positions hit by a kernel offset."""
    return tuple(
        slice(o, o + s * n, s) for o, s, n in zip(offset, stride, out_sizes)
    )


class _ConvGeometry(NamedTuple):
    """Everything about one convolution call that depends only on shapes."""

    out_shape: tuple          # the op's result shape
    work_shape: tuple         # conv3d accumulator (B, G, O/G, voxels); transposed: scatter buffer
    grouped: tuple            # the (padded) input viewed as (B, G, C/G, D, H, W)
    padded: tuple | None      # zero-padded input shape, None without padding
    interior: tuple | None    # the input's slice inside the padded buffer
    operand_shape: tuple      # matmul operand: patch (conv3d) / flattened input (transposed)
    taps: tuple               # per kernel offset: (offset, spatial slice[, patch is a view])
    crop: tuple | None        # transposed conv: the result's slice of the scatter buffer
    matmul_out: bool          # np.matmul(..., out=) is bitwise for this geometry


def _taps(w_shape, stride, sizes):
    """Per kernel offset, the offset and the strided slice of the
    (grouped) spatial volume it touches."""
    return tuple((offset, (Ellipsis,) + _offset_slices(offset, stride, sizes))
                 for offset in itertools.product(*(range(k) for k in w_shape[2:])))


def _tap_weights(w: np.ndarray, groups: int, swap: bool = False) -> np.ndarray:
    """Offset-major view of a weight: ``[i, j, k]`` is offset (i, j, k)'s
    (G, ., .) matrix, its last two axes swapped when ``swap``."""
    wg = w.reshape(groups, w.shape[0] // groups, *w.shape[1:])
    return wg.transpose((3, 4, 5, 0, 2, 1) if swap else (3, 4, 5, 0, 1, 2))


def _matmul_out_is_bitwise(w_off: np.ndarray, operand_shape, out_shape, dtype) -> bool:
    operand = np.random.default_rng(0).random(operand_shape).astype(dtype, copy=False)
    return _out_form_is_bitwise(np.matmul, (w_off, operand), {}, out_shape, dtype)


@functools.lru_cache(maxsize=256)
def _conv3d_geometry(x_shape, w_shape, stride, padding, groups, dtype) -> _ConvGeometry:
    stride, padding = _triple(stride), _triple(padding)
    batch, cin = x_shape[:2]
    cout, cg = w_shape[:2]
    out_sizes = tuple(
        _out_size(x_shape[2 + i], w_shape[2 + i], stride[i], padding[i]) for i in range(3)
    )
    padded = interior = None
    if any(padding):
        padded = (batch, cin) + tuple(n + 2 * p for n, p in zip(x_shape[2:], padding))
        interior = (slice(None), slice(None)) + tuple(
            slice(p, p + n) for p, n in zip(padding, x_shape[2:]))
    operand_shape = (batch, groups, cg, int(np.prod(out_sizes)))
    # whether each patch reshapes to the matmul operand as a view of a
    # C-contiguous input (the others are copied into one patch buffer)
    grouped = np.empty(padded or x_shape, dtype=dtype).reshape(
        (batch, groups, cin // groups) + (padded or x_shape)[2:])
    taps = tuple(
        (offset, index, np.may_share_memory(grouped[index].reshape(operand_shape), grouped))
        for offset, index in _taps(w_shape, stride, out_sizes))
    work_shape = (batch, groups, cout // groups, operand_shape[3])
    w_probe = np.random.default_rng(0).random(w_shape).astype(dtype, copy=False)
    matmul_out = _matmul_out_is_bitwise(_tap_weights(w_probe, groups)[0, 0, 0],
                                        operand_shape, work_shape, dtype)
    return _ConvGeometry((batch, cout) + out_sizes, work_shape, grouped.shape, padded,
                         interior, operand_shape, taps, None, matmul_out)


def conv3d_call(x: np.ndarray, w: np.ndarray, stride, padding, groups: int,
                out: np.ndarray | None = None):
    """Bind one grouped 3D cross-correlation; returns ``run() -> out``.

    Each kernel offset contributes one batched BLAS matmul over the
    channel axis (``(G, O, C) @ (B, G, C, DHW)``), which is several times
    faster than the equivalent ``einsum`` contraction while keeping the
    per-offset accumulation order — and therefore run-to-run bitwise
    determinism — unchanged.  Shape-only set-up (slices, padded layout,
    the matmul ``out=`` probe) is cached per geometry; binding slices the
    operands once, so a compiled plan binds at compile time and replays
    ``run`` alone.  ``out`` must be C-contiguous.
    """
    geo = _conv3d_geometry(x.shape, w.shape, _hashable(stride), _hashable(padding),
                           groups, x.dtype)
    if geo.padded is None:
        xp, interior = x, None
    else:
        xp = np.zeros(geo.padded, dtype=x.dtype)
        interior = xp[geo.interior]
    xg = xp.reshape(geo.grouped)
    if out is None:
        out = np.empty(geo.out_shape, dtype=x.dtype)
    out4 = out.reshape(geo.work_shape)
    accum = np.empty(geo.work_shape, dtype=x.dtype)
    w_taps = _tap_weights(w, groups)
    # the cached view/copy decisions hold for a C-contiguous input; for
    # any other layout a patch is a view exactly when numpy reshapes it
    # to one, and otherwise copied on every run, as reshape would
    contiguous = xg.flags["C_CONTIGUOUS"]
    taps, patch_buf = [], None
    for offset, index, is_view in geo.taps:
        patch = xg[index]
        flat = None
        if is_view or not contiguous:
            flat = patch.reshape(geo.operand_shape)
            if not contiguous and not np.may_share_memory(flat, xg):
                flat = None
        if flat is None and patch_buf is None:
            patch_buf = np.empty(geo.operand_shape, dtype=x.dtype)
        taps.append((patch, flat, w_taps[offset]))
    patch6 = None if patch_buf is None else patch_buf.reshape(patch.shape)
    matmul_out = geo.matmul_out

    def run() -> np.ndarray:
        if interior is not None:
            np.copyto(interior, x)
        out4.fill(0.0)
        for patch, flat, w_off in taps:
            if flat is None:
                np.copyto(patch6, patch)
                flat = patch_buf
            if matmul_out:
                np.matmul(w_off, flat, out=accum)
            else:
                np.copyto(accum, np.matmul(w_off, flat))
            np.add(out4, accum, out=out4)
        return out

    return run


@register_kernel("conv3d", bind=conv3d_call)
def conv3d_forward(x: np.ndarray, w: np.ndarray, stride, padding, groups: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Raw-numpy grouped 3D cross-correlation (see :func:`conv3d_call`)."""
    return conv3d_call(x, w, stride, padding, groups, out)()


def conv3d_grad_input(gout: np.ndarray, w: np.ndarray, x_shape, stride, padding, groups: int) -> np.ndarray:
    """Gradient of :func:`conv3d_forward` w.r.t. its input."""
    stride, padding = _triple(stride), _triple(padding)
    cout, cg, kd, kh, kw = w.shape
    b = x_shape[0]
    padded_shape = tuple(x_shape[2 + i] + 2 * padding[i] for i in range(3))
    out_sizes = gout.shape[2:]
    gg = _grouped(gout, groups)
    wg = w.reshape(groups, cout // groups, cg, kd, kh, kw)
    gxp = np.zeros((b, groups, cg) + padded_shape, dtype=gout.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = _offset_slices(offset, stride, out_sizes)
        gxp[(slice(None), slice(None), slice(None)) + sl] += np.einsum(
            "bgodhw,goc->bgcdhw", gg, wg[:, :, :, offset[0], offset[1], offset[2]]
        )
    pd, ph, pw = padding
    crop = (
        slice(pd, gxp.shape[3] - pd),
        slice(ph, gxp.shape[4] - ph),
        slice(pw, gxp.shape[5] - pw),
    )
    return gxp[(slice(None), slice(None), slice(None)) + crop].reshape(x_shape)


def conv3d_grad_weight(gout: np.ndarray, x: np.ndarray, w_shape, stride, padding, groups: int) -> np.ndarray:
    """Gradient of :func:`conv3d_forward` w.r.t. the weight."""
    stride, padding = _triple(stride), _triple(padding)
    cout, cg, kd, kh, kw = w_shape
    xp = _pad_spatial(x, padding)
    xg = _grouped(xp, groups)
    gg = _grouped(gout, groups)
    out_sizes = gout.shape[2:]
    gw = np.zeros((groups, cout // groups, cg, kd, kh, kw), dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = _offset_slices(offset, stride, out_sizes)
        patch = xg[(slice(None), slice(None), slice(None)) + sl]
        gw[:, :, :, offset[0], offset[1], offset[2]] = np.einsum("bgodhw,bgcdhw->goc", gg, patch)
    return gw.reshape(w_shape)


@functools.lru_cache(maxsize=256)
def _conv_transpose3d_geometry(x_shape, w_shape, stride, padding, output_padding,
                               groups, dtype) -> _ConvGeometry:
    stride, padding = _triple(stride), _triple(padding)
    output_padding = _triple(output_padding)
    cin, og = w_shape[:2]
    batch, in_sizes = x_shape[0], x_shape[2:]
    full_sizes = tuple(
        (in_sizes[i] - 1) * stride[i] + w_shape[2 + i] + output_padding[i] for i in range(3)
    )
    grouped = (batch, groups, cin // groups) + in_sizes
    operand_shape = grouped[:3] + (int(np.prod(in_sizes)),)
    crop = (slice(None),) * 3 + tuple(slice(p, n - p) for p, n in zip(padding, full_sizes))
    out_shape = (batch, groups * og) + tuple(n - 2 * p for p, n in zip(padding, full_sizes))
    w_probe = np.random.default_rng(0).random(w_shape).astype(dtype, copy=False)
    matmul_out = _matmul_out_is_bitwise(
        _tap_weights(w_probe, groups, swap=True)[0, 0, 0], operand_shape,
        (batch, groups, og, operand_shape[3]), dtype)
    return _ConvGeometry(out_shape, (batch, groups, og) + full_sizes, grouped, None, None,
                         operand_shape, _taps(w_shape, stride, in_sizes), crop, matmul_out)


def conv_transpose3d_call(x: np.ndarray, w: np.ndarray, stride, padding, output_padding,
                          groups: int, out: np.ndarray | None = None):
    """Bind one grouped transposed 3D convolution (scatter form); returns
    ``run()``, which computes it and returns the result.

    Contributions scatter into a full-size work buffer whose padding
    crop is the result, returned as a strided view of that buffer.
    ``out``, when given, is the work buffer itself (or, without padding,
    a C-contiguous array of the result's shape, which is the same
    memory).
    """
    geo = _conv_transpose3d_geometry(x.shape, w.shape, _hashable(stride), _hashable(padding),
                                     _hashable(output_padding), groups, x.dtype)
    full = np.empty(geo.work_shape, dtype=x.dtype) if out is None \
        else out.reshape(geo.work_shape)
    accum = np.empty(geo.work_shape[:3] + geo.operand_shape[3:], dtype=x.dtype)
    accum6 = accum.reshape(geo.work_shape[:3] + x.shape[2:])
    w_taps = _tap_weights(w, groups, swap=True)
    taps = [(w_taps[offset], full[index]) for offset, index in geo.taps]
    result = full[geo.crop].reshape(geo.out_shape)
    matmul_out = geo.matmul_out

    def run() -> np.ndarray:
        # the flattened input: a view of ``x`` or, like reshape, a copy
        xm = x.reshape(geo.grouped).reshape(geo.operand_shape)
        full.fill(0.0)
        for w_off, target in taps:
            if matmul_out:
                np.matmul(w_off, xm, out=accum)
            else:
                np.copyto(accum, np.matmul(w_off, xm))
            np.add(target, accum6, out=target)
        return result

    return run


@register_kernel("conv_transpose3d", bind=conv_transpose3d_call)
def conv_transpose3d_forward(x: np.ndarray, w: np.ndarray, stride, padding, output_padding,
                             groups: int, out: np.ndarray | None = None) -> np.ndarray:
    """Raw-numpy grouped transposed 3D convolution (see :func:`conv_transpose3d_call`)."""
    return conv_transpose3d_call(x, w, stride, padding, output_padding, groups, out)()


def conv_transpose3d_grad_input(gout: np.ndarray, w: np.ndarray, x_shape, stride, padding, output_padding, groups: int) -> np.ndarray:
    """Gradient of :func:`conv_transpose3d_forward` w.r.t. its input."""
    stride, padding, output_padding = _triple(stride), _triple(padding), _triple(output_padding)
    cin, og, kd, kh, kw = w.shape
    in_sizes = x_shape[2:]
    full_sizes = tuple(
        (in_sizes[i] - 1) * stride[i] + (kd, kh, kw)[i] + output_padding[i] for i in range(3)
    )
    pd, ph, pw = padding
    gfull = np.zeros((x_shape[0], groups * og) + full_sizes, dtype=gout.dtype)
    gfull[:, :, pd:full_sizes[0] - pd, ph:full_sizes[1] - ph, pw:full_sizes[2] - pw] = gout
    gg = _grouped(gfull, groups)
    wg = w.reshape(groups, cin // groups, og, kd, kh, kw)
    gx = np.zeros((x_shape[0], groups, cin // groups) + tuple(in_sizes), dtype=gout.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = _offset_slices(offset, stride, in_sizes)
        gx += np.einsum(
            "bgodhw,gco->bgcdhw",
            gg[(slice(None), slice(None), slice(None)) + sl],
            wg[:, :, :, offset[0], offset[1], offset[2]],
        )
    return gx.reshape(x_shape)


def conv_transpose3d_grad_weight(gout: np.ndarray, x: np.ndarray, w_shape, stride, padding, output_padding, groups: int) -> np.ndarray:
    """Gradient of :func:`conv_transpose3d_forward` w.r.t. the weight."""
    stride, padding, output_padding = _triple(stride), _triple(padding), _triple(output_padding)
    cin, og, kd, kh, kw = w_shape
    in_sizes = x.shape[2:]
    full_sizes = tuple(
        (in_sizes[i] - 1) * stride[i] + (kd, kh, kw)[i] + output_padding[i] for i in range(3)
    )
    pd, ph, pw = padding
    gfull = np.zeros((x.shape[0], gout.shape[1]) + full_sizes, dtype=gout.dtype)
    gfull[:, :, pd:full_sizes[0] - pd, ph:full_sizes[1] - ph, pw:full_sizes[2] - pw] = gout
    gg = _grouped(gfull, groups)
    xg = _grouped(x, groups)
    gw = np.zeros((groups, cin // groups, og, kd, kh, kw), dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = _offset_slices(offset, stride, in_sizes)
        gw[:, :, :, offset[0], offset[1], offset[2]] = np.einsum(
            "bgodhw,bgcdhw->gco",
            gg[(slice(None), slice(None), slice(None)) + sl],
            xg,
        )
    return gw.reshape(w_shape)


# ----------------------------------------------------------------------
# Tensor-level differentiable ops
# ----------------------------------------------------------------------
def conv3d(x, w, bias=None, stride=1, padding=0, groups: int = 1) -> Tensor:
    """Differentiable grouped 3D convolution (cross-correlation)."""
    x, w = ensure_tensor(x), ensure_tensor(w)
    out_data = conv3d_forward(x.data, w.data, stride, padding, groups)
    parents = [
        (x, lambda g: conv3d_grad_input(g, w.data, x.shape, stride, padding, groups)),
        (w, lambda g: conv3d_grad_weight(g, x.data, w.shape, stride, padding, groups)),
    ]
    out = Tensor.from_op(out_data, parents,
                         capture=("conv3d", {"stride": stride,
                                             "padding": padding,
                                             "groups": groups}))
    if bias is not None:
        bias = ensure_tensor(bias)
        from .ops_basic import add
        from .ops_shape import reshape

        out = add(out, reshape(bias, (1, -1, 1, 1, 1)))
    return out


def conv_transpose3d(x, w, bias=None, stride=1, padding=0, output_padding=0, groups: int = 1) -> Tensor:
    """Differentiable grouped transposed 3D convolution."""
    x, w = ensure_tensor(x), ensure_tensor(w)
    out_data = conv_transpose3d_forward(x.data, w.data, stride, padding, output_padding, groups)
    parents = [
        (x, lambda g: conv_transpose3d_grad_input(g, w.data, x.shape, stride, padding, output_padding, groups)),
        (w, lambda g: conv_transpose3d_grad_weight(g, x.data, w.shape, stride, padding, output_padding, groups)),
    ]
    out = Tensor.from_op(out_data, parents,
                         capture=("conv_transpose3d",
                                  {"stride": stride, "padding": padding,
                                   "output_padding": output_padding,
                                   "groups": groups}))
    if bias is not None:
        bias = ensure_tensor(bias)
        from .ops_basic import add
        from .ops_shape import reshape

        out = add(out, reshape(bias, (1, -1, 1, 1, 1)))
    return out


def conv1d(x, w, bias=None, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Differentiable grouped 1D convolution, routed through conv3d."""
    from .ops_shape import reshape

    x, w = ensure_tensor(x), ensure_tensor(w)
    b, c, length = x.shape
    cout, cg, k = w.shape
    x3 = reshape(x, (b, c, 1, 1, length))
    w3 = reshape(w, (cout, cg, 1, 1, k))
    out = conv3d(x3, w3, bias=bias, stride=(1, 1, stride), padding=(0, 0, padding), groups=groups)
    return reshape(out, (b, cout, out.shape[-1]))


def upsample_nearest3d(x, scale) -> Tensor:
    """Nearest-neighbour upsampling of a (B, C, D, H, W) tensor."""
    from .ops_shape import repeat_interleave

    sd, sh, sw = _triple(scale)
    out = x
    if sd > 1:
        out = repeat_interleave(out, sd, axis=2)
    if sh > 1:
        out = repeat_interleave(out, sh, axis=3)
    if sw > 1:
        out = repeat_interleave(out, sw, axis=4)
    return out
