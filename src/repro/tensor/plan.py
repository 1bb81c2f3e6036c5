"""Compiled no-grad inference plans: shape-specialized capture and replay.

The autograd tape executes the training-shaped forward even under
``no_grad()``: every op allocates a fresh :class:`Tensor` wrapper plus a
fresh ndarray result, so the serve hot path is dominated by allocator
traffic rather than FLOPs.  This module trades generality for speed by
compiling one forward into a **plan**:

1. **Capture** — :func:`capture` runs one ``no_grad`` forward with a
   thread-local builder installed.  Every ``Tensor.from_op`` call site
   passes ``capture=(op_name, params)`` metadata describing itself; the
   builder records the op sequence with concrete shapes and dtypes.  Any
   op that reaches ``from_op`` *without* capture metadata (custom ops in
   losses, solver code, third-party extensions) aborts the capture with
   :class:`PlanCaptureError` — the caller falls back to the tape.
2. **Compile** — constant folding (weight-derived subgraphs such as SSM
   discretization or transposed ``Linear`` weights become baked arrays),
   dead-code elimination, then liveness-driven arena allocation: every
   dynamic intermediate lands in a preallocated buffer, buffers are
   recycled the step after their last read, and adjacent elementwise
   steps *fuse* by writing into a dying input's buffer in place.  Pure
   view ops (reshape/transpose/slice/flip) are resolved once at compile
   time into stable numpy views of arena buffers and cost nothing at
   replay.  Every other step binds to one call of its op's kernel.
3. **Replay** — :meth:`Plan.run` copies the request batch into the input
   buffer and executes the flat list of bound kernel calls, each writing
   its result into the arena through ``out=``.  No tensors, no tape;
   kernels allocate only their own temporaries, and the final output is
   copied (so two consecutive replays never alias each other's results).

Kernels
-------
Each op has exactly **one forward kernel**, ``kernel(*arrays, out=None,
**params) -> ndarray``, defined next to its tape op and registered with
:func:`register_kernel` under the op's capture name.  The tape calls it
with ``out=None`` (it allocates); a plan calls the same function at
replay with ``out=`` set to an arena buffer.  The registration declares
which inputs the kernel may overwrite through ``out`` (in-place fusion),
whether the op is a view, whether its ``out=`` form goes through BLAS
and must be probed, and, for the convolutions, the ``bind`` half of the
kernel, whose set-up the compiler runs once instead of every replay.

Identity contract
-----------------
The tape and the plan call the same kernel, so a replay is **bitwise
identical** to the tape forward for the same input.  Validation still
checks it: after compiling, :func:`capture` replays the capture input
and compares bitwise against the traced output, then runs a second,
independently generated input through both the plan and the tape.  The
second input catches data-dependent constants baked into a plan by
accident (the classic trace-compiler bug); any mismatch raises
:class:`PlanCaptureError` so callers degrade to the tape rather than
serve wrong answers.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, NamedTuple

import numpy as np

from .tensor import Tensor, _state, no_grad

__all__ = [
    "Plan", "PlanError", "PlanCaptureError", "PlanExecutionError",
    "capture", "register_kernel",
]


class PlanError(RuntimeError):
    """Base class for plan compilation/execution failures."""


class PlanCaptureError(PlanError):
    """The forward could not be captured or failed validation; use the tape."""


class PlanExecutionError(PlanError):
    """A compiled plan was replayed with incompatible inputs."""


class _Kernel(NamedTuple):
    fn: Callable
    inplace: tuple[int, ...]
    view: bool
    blas: bool
    bind: Callable | None


#: op name -> its forward kernel; see :func:`register_kernel`
_KERNELS: dict[str, _Kernel] = {}


def register_kernel(name: str, inplace: tuple[int, ...] = (), view: bool = False,
                    blas: bool = False, bind: Callable | None = None):
    """Decorator registering ``fn`` as the forward kernel of op ``name``.

    ``fn(*arrays, out=None, **params)`` must return its result, writing
    it into ``out`` when given; ``params`` are the op's capture params.

    * ``inplace`` lists the inputs ``fn`` reads nothing from after its
      first write to ``out``, so the plan may pass a dying input's buffer
      as ``out``.
    * ``view=True`` marks ops whose allocating form normally returns a
      view of input 0: the compiler calls ``fn`` once at compile time and
      keeps a view result for free; a copy result (a strided reshape) is
      replayed through the ``out=`` form instead.  A view kernel with no
      ``out`` parameter (numpy's own transpose, flip, ...) cannot copy,
      so a copy result aborts the capture.
    * ``blas=True`` marks kernels whose ``out=`` form may take a
      different accumulation path; the compiler probes it once and
      replays the allocating form plus a copy when it differs.
    * ``bind`` is for kernels that are ``bind(*arrays, out=, **params)()``
      — all set-up in ``bind``, the arithmetic in the function it
      returns (the convolutions, whose per-offset views cost as much as
      their small matmuls).  The compiler binds once and replays only
      the returned function.

    Ops outside ``repro.tensor`` (the SSM scan, the LTI FFT convolution)
    register the same way, so the tensor package never imports them.
    """

    def _register(fn):
        _KERNELS[name] = _Kernel(fn, tuple(inplace), view, blas, bind)
        return fn

    return _register


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
_CONST, _INPUT, _STEP = 0, 1, 2


class _Slot:
    __slots__ = ("value", "kind", "producer")

    def __init__(self, value: np.ndarray, kind: int, producer: int | None = None):
        self.value = value
        self.kind = kind
        self.producer = producer


class _Step:
    __slots__ = ("op", "params", "in_slots", "out_slot")

    def __init__(self, op: str, params: dict, in_slots: list[int], out_slot: int):
        self.op = op
        self.params = params
        self.in_slots = in_slots
        self.out_slot = out_slot


class _Builder:
    """Thread-local recorder installed by :func:`capture`.

    ``Tensor.from_op`` calls :meth:`record` for every op executed while
    the builder is active; tensors are mapped to slots by object id, with
    strong references held so ids stay unique for the capture's lifetime.
    """

    def __init__(self):
        self.slots: list[_Slot] = []
        self.steps: list[_Step] = []
        self.failed: str | None = None
        self._slot_of: dict[int, int] = {}
        self._keepalive: list[Tensor] = []
        self._tensor_of_slot: dict[int, Tensor] = {}

    def fail(self, reason: str) -> None:
        if self.failed is None:
            self.failed = reason

    def _new_slot(self, tensor: Tensor, kind: int, producer: int | None = None) -> int:
        index = len(self.slots)
        self.slots.append(_Slot(tensor.data, kind, producer))
        self._slot_of[id(tensor)] = index
        self._keepalive.append(tensor)
        self._tensor_of_slot[index] = tensor
        return index

    def add_input(self, tensor: Tensor) -> int:
        return self._new_slot(tensor, _INPUT)

    def slot_for(self, tensor: Tensor) -> int:
        found = self._slot_of.get(id(tensor))
        if found is not None:
            return found
        # first sighting: a leaf from outside the traced region — a
        # weight, a wrapped python scalar, a cached constant.  Its value
        # is embedded by reference.
        return self._new_slot(tensor, _CONST)

    def slot_of(self, tensor: Tensor) -> int | None:
        """Slot index if ``tensor`` was seen during this capture."""
        return self._slot_of.get(id(tensor))

    def record(self, out: Tensor, parents, capture) -> None:
        if self.failed is not None:
            return
        if capture is None:
            self.fail("op without capture metadata reached Tensor.from_op "
                      "(custom or un-instrumented op)")
            return
        name, params = capture
        if name not in _KERNELS:
            self.fail(f"no plan kernel registered for op {name!r}")
            return
        traced = [key for key, value in params.items() if isinstance(value, Tensor)]
        if traced:
            self.fail(f"op {name!r}: parameter {traced[0]!r} is a traced tensor "
                      "(data-dependent); plans only support static parameters")
            return
        in_slots = [self.slot_for(parent) for parent, _ in parents]
        step_index = len(self.steps)
        out_slot = self._new_slot(out, _STEP, producer=step_index)
        self.steps.append(_Step(name, params, in_slots, out_slot))

    def alias(self, out: Tensor, source: Tensor) -> None:
        """``detach()``-style alias: same data, same slot."""
        if self.failed is not None:
            return
        slot = self.slot_for(source)
        self._slot_of[id(out)] = slot
        self._keepalive.append(out)


# ----------------------------------------------------------------------
# Compilation: arena, liveness, kernel binding
# ----------------------------------------------------------------------
class _Storage:
    __slots__ = ("block", "last", "arena")

    def __init__(self, block: np.ndarray | None, last: int, arena: bool):
        self.block = block
        self.last = last
        self.arena = arena


def _nbytes(shape, dtype) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def _layout_permutation(value: np.ndarray):
    """Axes such that ``value.transpose(axes)`` is C-contiguous, or None.

    numpy ufuncs write their result in the *iteration* order of their
    inputs, so the tape routinely produces permuted-contiguous arrays
    (e.g. ``mul`` over two transposed views).  Replay buffers must
    replicate that layout — BLAS consumers pick their accumulation path
    from operand strides, and a layout mismatch costs a ulp.  Size-1
    axes carry arbitrary strides and are ignored.
    """
    axes = sorted(range(value.ndim),
                  key=lambda i: (value.shape[i] == 1, -value.strides[i], i))
    expected = value.itemsize
    for axis in reversed(axes):
        if value.shape[axis] == 1:
            continue
        if value.strides[axis] != expected:
            return None
        expected *= value.shape[axis]
    return axes


def _out_form_is_bitwise(fn, operands, params, shape, dtype) -> bool:
    """Probe whether ``fn(..., out=)`` matches the allocating form bitwise.

    numpy's ``out=`` dispatch can take a different accumulation path for
    some shapes (observed: stacked-gemm ``matmul`` differs by 1 ulp), and
    which path is taken depends only on shapes/layouts — which the arena
    buffers replicate — so a single probe decides correctly for every
    later call with the same geometry.
    """
    want = fn(*operands, **params)
    probe = np.empty(shape, dtype=dtype)
    fn(*operands, out=probe, **params)
    return _bitwise_equal(np.asarray(want), probe)


def _copy_result(fn, operands, params, out) -> None:
    """Replay form of a kernel whose ``out=`` path is not bitwise."""
    np.copyto(out, fn(*operands, **params))


class _Compiler:
    def __init__(self, slots: list[_Slot], steps: list[_Step], out_slot: int,
                 input_slots: list[int], plan: "Plan"):
        self.slots = slots
        self.steps = steps
        self.out_slot = out_slot
        self.plan = plan
        self.program: list = plan._program
        self.index = -1
        # buffers: slot -> ndarray used at replay (const value, arena
        # buffer, or compile-time view of an arena buffer)
        self.buffers: dict[int, np.ndarray] = {}
        self.slot_storage: dict[int, int] = {}
        self.storages: list[_Storage] = []
        self._free: dict[int, list[np.ndarray]] = {}
        self._slot_last: dict[int, int] = {}
        for i, step in enumerate(steps):
            for slot in step.in_slots:
                self._slot_last[slot] = i
        self._slot_last[out_slot] = len(steps)
        for slot_index, slot in enumerate(self.slots):
            if slot.kind == _CONST:
                self.buffers[slot_index] = slot.value
        for slot_index in input_slots:
            value = self.slots[slot_index].value
            buffer, storage_index = self.alloc_buffer(
                value.shape, value.dtype, last=self._slot_last.get(slot_index, -1))
            self.buffers[slot_index] = buffer
            self.slot_storage[slot_index] = storage_index
            plan._in_bufs.append(buffer)

    def slot_last_of(self, slot: int) -> int:
        return self._slot_last.get(slot, -1)

    def alloc_buffer(self, shape, dtype, last: int,
                     like: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        nbytes = _nbytes(shape, dtype)
        bucket = self._free.get(nbytes)
        if bucket:
            block = bucket.pop()
        else:
            block = np.empty(max(nbytes, 1), dtype=np.uint8)
            self.plan.arena_bytes += max(nbytes, 1)
            self.plan.arena_blocks += 1
        flat = block[:nbytes].view(dtype)
        buffer = None
        if like is not None and like.ndim > 1 and not like.flags["C_CONTIGUOUS"]:
            axes = _layout_permutation(like)
            if axes is None:
                raise PlanCaptureError(
                    f"cannot replicate output layout {like.strides} "
                    f"for shape {like.shape}")
            inverse = np.argsort(axes)
            buffer = flat.reshape(tuple(shape[a] for a in axes)).transpose(inverse)
        if buffer is None:
            buffer = flat.reshape(shape)
        self.storages.append(_Storage(block, last, arena=True))
        return buffer, len(self.storages) - 1

    def bind_out(self, slot: int, buffer: np.ndarray, storage_index: int) -> None:
        self.buffers[slot] = buffer
        self.slot_storage[slot] = storage_index

    def alloc_out(self, step: _Step, inplace: tuple[int, ...]) -> np.ndarray:
        """Allocate the step's output buffer, fusing in place onto a dying
        input when the kernel declared that input alias-safe."""
        cap_out = self.slots[step.out_slot].value
        shape, dtype = cap_out.shape, cap_out.dtype
        if cap_out.ndim <= 1 or cap_out.flags["C_CONTIGUOUS"]:
            for idx in inplace:
                slot = step.in_slots[idx]
                storage_index = self.slot_storage.get(slot)
                if storage_index is None:
                    continue
                storage = self.storages[storage_index]
                buffer = self.buffers[slot]
                if (storage.arena and storage.last == self.index
                        and buffer.shape == shape and buffer.dtype == dtype
                        and buffer.flags["C_CONTIGUOUS"]):
                    storage.last = max(storage.last, self.slot_last_of(step.out_slot))
                    self.bind_out(step.out_slot, buffer, storage_index)
                    self.plan.fused_steps += 1
                    return buffer
        buffer, storage_index = self.alloc_buffer(
            shape, dtype, last=self.slot_last_of(step.out_slot), like=cap_out)
        self.bind_out(step.out_slot, buffer, storage_index)
        return buffer

    def bind_view(self, step: _Step, array: np.ndarray) -> None:
        """Bind the output to a compile-time view of input 0's buffer."""
        storage_index = self.slot_storage.get(step.in_slots[0])
        if storage_index is None:
            # a view of a constant with a dynamic sibling cannot happen
            # (such steps fold); guard anyway.
            raise PlanCaptureError(f"op {step.op!r}: view of a non-arena buffer")
        storage = self.storages[storage_index]
        storage.last = max(storage.last, self.slot_last_of(step.out_slot))
        self.bind_out(step.out_slot, array, storage_index)

    def bind_work_view(self, step: _Step, kernel: _Kernel, captured) -> np.ndarray:
        """Bind an output the tape returned as a strided view into a larger
        work array (the transposed convolution's cropped scatter buffer).

        The arena replicates the work array and the kernel is called once
        on the capture-time values with ``out=`` set to it; the view it
        returns becomes the output, provided it has the tape's strides
        (BLAS consumers dispatch on strides).  Returns the work buffer.
        """
        cap_out = self.slots[step.out_slot].value
        base = cap_out.base
        if base is None:
            raise PlanCaptureError(
                f"op {step.op!r}: cannot replicate output layout "
                f"{cap_out.strides} for shape {cap_out.shape}")
        work, storage_index = self.alloc_buffer(
            base.shape, base.dtype, last=self.slot_last_of(step.out_slot), like=base)
        try:
            view = kernel.fn(*captured, out=work, **step.params)
        except (TypeError, ValueError) as error:
            raise PlanCaptureError(f"op {step.op!r}: {error}") from error
        if (not isinstance(view, np.ndarray) or not np.shares_memory(view, work)
                or view.shape != cap_out.shape or view.strides != cap_out.strides):
            raise PlanCaptureError(
                f"op {step.op!r}: could not replicate the tape's strided-view output")
        self.bind_out(step.out_slot, view, storage_index)
        return work

    def bind(self, step: _Step) -> None:
        """Resolve one step: a compile-time view, or one replay call
        ``kernel(*buffers, out=buffer, **params)`` (for a kernel with a
        ``bind`` form, the function its binding returned)."""
        kernel = _KERNELS[step.op]
        params = step.params
        operands = [self.buffers[slot] for slot in step.in_slots]
        captured = [self.slots[slot].value for slot in step.in_slots]
        if kernel.view:
            result = kernel.fn(*operands, **params)
            if isinstance(result, np.ndarray) and (
                    result.size == 0 or np.shares_memory(result, operands[0])):
                self.bind_view(step, result)
                return
        cap_out = self.slots[step.out_slot].value
        if cap_out.ndim > 1 and _layout_permutation(cap_out) is None:
            out = self.bind_work_view(step, kernel, captured)
        else:
            out = self.alloc_out(step, kernel.inplace)
        if kernel.view:
            # numpy copied where the op is usually a view (a strided
            # reshape); that needs an out= form (advanced indexing has none)
            try:
                kernel.fn(*captured, out=out, **params)
            except TypeError as error:
                raise PlanCaptureError(
                    f"op {step.op!r} copied instead of viewing and has no "
                    f"out= form ({error})") from error
        if kernel.bind is not None:
            self.program.append(kernel.bind(*operands, out=out, **params))
        elif kernel.blas and not _out_form_is_bitwise(
                kernel.fn, captured, params, out.shape, out.dtype):
            self.program.append(functools.partial(_copy_result, kernel.fn,
                                                  operands, params, out))
        else:
            self.program.append(functools.partial(kernel.fn, *operands,
                                                  out=out, **params))

    def run(self) -> None:
        for i, step in enumerate(self.steps):
            self.index = i
            self.bind(step)
            # recycle every storage whose last consumer just ran
            for storage in self.storages:
                if storage.last == i and storage.arena and storage.block is not None:
                    self._free.setdefault(storage.block.nbytes, []).append(storage.block)
                    storage.block = None


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
class Plan:
    """A compiled, shape-specialized, replayable ``no_grad`` forward."""

    def __init__(self, input_shapes, input_dtypes, label: str | None = None):
        from repro.runtime.sync import make_lock

        self.label = label or "plan"
        self.input_shapes = [tuple(s) for s in input_shapes]
        self.input_dtypes = list(input_dtypes)
        self._lock = make_lock(f"tensor.plan.{self.label}")
        self._program: list = []
        self._in_bufs: list[np.ndarray] = []
        self._out: np.ndarray | None = None
        self.captured_steps = 0
        self.folded_steps = 0
        self.pruned_steps = 0
        self.compiled_steps = 0
        self.fused_steps = 0
        self.arena_bytes = 0
        self.arena_blocks = 0
        self.capture_s = 0.0
        self.validate_s = 0.0
        self.replays = 0
        self.replay_s_total = 0.0

    def run(self, *inputs: np.ndarray) -> np.ndarray:
        """Replay the plan; returns a fresh array (never an arena alias)."""
        if len(inputs) != len(self._in_bufs):
            raise PlanExecutionError(
                f"plan takes {len(self._in_bufs)} inputs, got {len(inputs)}")
        with self._lock:
            started = time.perf_counter()
            for buffer, value in zip(self._in_bufs, inputs):
                value = np.asarray(value)
                if value.shape != buffer.shape or value.dtype != buffer.dtype:
                    raise PlanExecutionError(
                        f"plan compiled for {buffer.shape}/{buffer.dtype}, "
                        f"got {value.shape}/{value.dtype}")
                np.copyto(buffer, value)
            for op in self._program:
                op()
            result = self._out.copy()
            self.replays += 1
            self.replay_s_total += time.perf_counter() - started
        return result

    def stats(self) -> dict:
        with self._lock:
            replays, replay_s = self.replays, self.replay_s_total
        return {
            "label": self.label,
            "input_shapes": [list(s) for s in self.input_shapes],
            "captured_steps": self.captured_steps,
            "folded_steps": self.folded_steps,
            "pruned_steps": self.pruned_steps,
            "compiled_steps": self.compiled_steps,
            "program_ops": len(self._program),
            "fused_steps": self.fused_steps,
            "arena_bytes": self.arena_bytes,
            "arena_blocks": self.arena_blocks,
            "capture_s": round(self.capture_s, 6),
            "validate_s": round(self.validate_s, 6),
            "replays": replays,
            "replay_s_total": round(replay_s, 6),
        }


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if np.issubdtype(a.dtype, np.floating):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def _compile(builder: _Builder, out_tensor: Tensor, input_slots: list[int],
             plan: Plan) -> None:
    out_slot = builder.slot_of(out_tensor)
    if out_slot is None:
        raise PlanCaptureError("the traced callable returned a tensor created "
                               "outside the captured op graph")
    slots, steps = builder.slots, builder.steps
    plan.captured_steps = len(steps)

    # constant folding: a step whose inputs are all static produced its
    # (weight-derived) value during capture; bake it and drop the step.
    static = [slot.kind == _CONST for slot in slots]
    dynamic_steps: list[_Step] = []
    for step in steps:
        if all(static[s] for s in step.in_slots):
            static[step.out_slot] = True
            slots[step.out_slot].kind = _CONST
        else:
            dynamic_steps.append(step)
    plan.folded_steps = len(steps) - len(dynamic_steps)

    # dead-code elimination: keep only steps the output depends on
    producer = {step.out_slot: step for step in dynamic_steps}
    needed: set[int] = set()
    frontier = [out_slot]
    while frontier:
        slot = frontier.pop()
        if slot in needed:
            continue
        needed.add(slot)
        step = producer.get(slot)
        if step is not None:
            frontier.extend(step.in_slots)
    live_steps = [step for step in dynamic_steps if step.out_slot in needed]
    plan.pruned_steps = len(dynamic_steps) - len(live_steps)
    plan.compiled_steps = len(live_steps)

    compiler = _Compiler(slots, live_steps, out_slot, input_slots, plan)
    compiler.run()
    plan._out = compiler.buffers[out_slot]


def capture(fn, *examples, validate: bool = True, validation_inputs=None,
            label: str | None = None) -> Plan:
    """Trace one ``no_grad`` call of ``fn`` on ``examples`` into a Plan.

    ``fn`` maps Tensors to one Tensor; ``examples`` are ndarrays fixing
    the (shape, dtype) specialization.  ``validate`` replays the capture
    input (bitwise against the traced output) and one generated — or each
    caller-supplied ``validation_inputs`` tuple — input (bitwise against
    a fresh tape forward); the second input is what catches accidentally
    baked data-dependent values.  Raises :class:`PlanCaptureError` on any
    unsupported op or identity mismatch — callers keep the tape path.
    """
    if getattr(_state, "plan_builder", None) is not None:
        raise PlanCaptureError("capture() is not reentrant")
    examples = [np.asarray(e) for e in examples]
    if not examples:
        raise ValueError("capture() needs at least one example input")
    plan = Plan([e.shape for e in examples], [e.dtype for e in examples],
                label=label)
    builder = _Builder()
    started = time.perf_counter()
    _state.plan_builder = builder
    try:
        with no_grad():
            tensors = [Tensor(e) for e in examples]
            input_slots = [builder.add_input(t) for t in tensors]
            try:
                traced = fn(*tensors)
            except PlanError:
                raise
            except Exception as error:
                raise PlanCaptureError(f"traced forward raised {error!r}") from error
    finally:
        _state.plan_builder = None
    if builder.failed is not None:
        raise PlanCaptureError(builder.failed)
    if not isinstance(traced, Tensor):
        raise PlanCaptureError("traced callable must return a single Tensor")
    _compile(builder, traced, input_slots, plan)
    plan.capture_s = time.perf_counter() - started

    if validate:
        started = time.perf_counter()
        replayed = plan.run(*examples)
        if not _bitwise_equal(replayed, np.asarray(traced.data)):
            raise PlanCaptureError(
                "plan replay of the capture input diverged from the traced "
                "output (kernel identity violation)")
        if validation_inputs is None:
            rng = np.random.default_rng(0x5EED)
            validation_inputs = [tuple(
                rng.standard_normal(e.shape).astype(e.dtype, copy=False)
                if np.issubdtype(e.dtype, np.floating) else e.copy()
                for e in examples)]
        for values in validation_inputs:
            values = [np.asarray(v) for v in values]
            with no_grad():
                expected = fn(*[Tensor(v) for v in values]).data
            got = plan.run(*values)
            if not _bitwise_equal(got, np.asarray(expected)):
                raise PlanCaptureError(
                    "plan replay diverged from the tape on a validation input "
                    "(data-dependent value baked into the plan?)")
        plan.validate_s = time.perf_counter() - started
    return plan
