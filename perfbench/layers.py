"""Which public calls the traced mode wraps, layer by layer.

Span names are ``<layer>.<what>``; ``serving.py``, ``labels.py`` and
``opc.py`` turn them into the per-layer metrics listed in ``README.md``.
"""

from __future__ import annotations

import time

import numpy as np

from tracer import Tracer


def _state_bytes(args, kwargs, result):
    state = args[2] if len(args) > 2 else kwargs.get("state", {})
    return {"bytes": int(sum(np.asarray(v).nbytes for v in state.values()))}


def _plan_stats(args, kwargs, result):
    stats = result.stats()
    return {"ops": stats["program_ops"], "arena_bytes": stats["arena_bytes"],
            "shape": stats["input_shapes"]}


def _fallback(args, kwargs, result):
    return {"fallback": result is None}


def _transition(args, kwargs, result):
    return {"job": args[1], "state": args[2]}


def _chunk_job(args, kwargs, result):
    return {"job": args[1].id}


def _submitted(args, kwargs, result):
    return {"job": result.id}


def install_server(tracer: Tracer) -> None:
    """Calls made inside ``repro serve`` (and its forked children)."""
    import repro.jobs  # noqa: F401  (load every module an alias may live in)
    import repro.litho.ilt  # noqa: F401
    import repro.serve  # noqa: F401

    tracer.wrap_method("repro.serve.server", "ServedModel.validate_input",
                       "server.validate")
    tracer.wrap_method("repro.serve.batcher", "MicroBatcher.submit",
                       "batcher.submit")
    tracer.wrap_method("repro.serve.engine", "PlanExecutor.run",
                       "plan.replay", _fallback)
    tracer.wrap_function("repro.tensor.plan", "capture", "plan.capture",
                         _plan_stats)
    tracer.wrap_method("repro.serve.pool", "WorkerPool.forward",
                       "pool.forward")
    tracer.wrap_method("repro.obs.health", "HealthMonitor.observe_batch",
                       "obs.health")
    tracer.wrap_method("repro.jobs.store", "JobStore.submit", "jobs.submit",
                       _submitted)
    tracer.wrap_method("repro.jobs.store", "JobStore.transition",
                       "jobs.transition", _transition)
    tracer.wrap_method("repro.jobs.store", "JobStore.save_checkpoint",
                       "jobs.checkpoint", _state_bytes)
    # the chunk boundary has no public entry point; the private method
    # is the smallest call that covers fork, run and reply of one chunk
    tracer.wrap_method("repro.jobs.executor", "JobExecutor._run_chunk",
                       "jobs.chunk", _chunk_job)
    tracer.wrap_method("repro.litho.ilt", "GradientOPC.step", "ilt.step")
    tracer.wrap_function("repro.litho.ilt", "rasterize_t", "ilt.raster")
    tracer.wrap_function("repro.litho.ilt", "aerial_image_t", "ilt.aerial")
    tracer.wrap_method("repro.litho.ilt", "GaussianPEBBackend.inhibitor_t",
                       "ilt.peb")
    tracer.wrap_function("repro.litho.ilt", "soft_contact_cds",
                         "ilt.metrology")
    tracer.wrap_method("repro.tensor.tensor", "Tensor.backward",
                       "tensor.backward")


def install_labels(tracer: Tracer) -> None:
    """Calls made by ``repro.data.generate_dataset`` and its pool."""
    import repro.data  # noqa: F401
    import repro.litho  # noqa: F401

    tracer.wrap_function("repro.data.dataset", "generate_dataset",
                         "data.generate")
    tracer.wrap_function("repro.data.dataset", "simulate_clip", "data.clip")
    tracer.wrap_function("repro.runtime.pool", "parallel_map",
                         "runtime.parallel_map")
    tracer.wrap_function("repro.litho.optics", "aerial_image_stack",
                         "optics.aerial")
    tracer.wrap_method("repro.litho.peb", "RigorousPEBSolver.solve",
                       "peb.solve")
    tracer.wrap_method("repro.litho.dct", "LateralDiffusionPropagator.apply",
                       "peb.lateral")
    tracer.wrap_method("repro.litho.peb", "_ZPropagator.apply", "peb.z")
    tracer.wrap_function("repro.litho.peb", "catalysis_step", "peb.react")
    tracer.wrap_function("repro.litho.peb", "neutralization_step", "peb.react")


# -- model forward breakdown -------------------------------------------

MODEL_PARTS = ("stem", "embed", "sdm", "attn", "ffn", "fusion", "decoder",
               "refine")

#: SDMPEB attribute (or encoder attribute) -> reported part
_PART_OF = {
    "stem": "stem", "skip_proj": "stem",
    "fusion": "fusion", "decoder": "decoder", "refine_in": "refine",
    "refine_out": "refine", "sdm": "sdm", "attn": "attn",
    "attn_norm": "attn", "ffn": "ffn", "ffn_norm": "ffn",
}


def _part_roots(model) -> dict[int, str]:
    """``id(module)`` -> part for the disjoint subtrees that make a part."""
    roots = {}
    for name, child in model._modules.items():
        if name == "encoders":
            for encoder in child._modules.values():
                for sub, module in encoder._modules.items():
                    if sub in _PART_OF and module is not None:
                        roots[id(module)] = _PART_OF[sub]
        elif name == "embeddings":
            for module in child._modules.values():
                roots[id(module)] = "embed"
        elif name in _PART_OF and child is not None:
            roots[id(child)] = _PART_OF[name]
    return roots


def _einsum_flops(subscripts: str, shapes) -> int:
    inputs = subscripts.replace(" ", "").split("->")[0].split(",")
    sizes = {}
    for letters, shape in zip(inputs, shapes):
        for letter, size in zip(letters, shape):
            sizes[letter] = size
    return 2 * int(np.prod(list(sizes.values()), dtype=np.int64))


def model_breakdown(model, clip: np.ndarray, repeats: int) -> dict:
    """Per-part time of tape forwards of ``model`` on one clip, plus
    computed FLOPs and bytes of one forward.

    Part time is the inclusive time of each part's module subtrees
    (they are disjoint), i.e. the part's self time within the forward.
    ``conv3d`` and ``scan`` times are the functional calls, wherever
    they run.  FLOPs count the dense contractions (conv3d,
    conv_transpose3d, matmul, einsum) from operand shapes; bytes are
    every tape op's input plus output array bytes.  Both are computed,
    not measured, and repeat exactly.
    """
    from repro import tensor as T
    from repro.nn import module as module_mod
    from repro.ssm import scan as scan_mod
    from repro.tensor import ops_basic, ops_nn
    from repro.tensor.tensor import Tensor

    roots = _part_roots(model)
    times = {part: [] for part in MODEL_PARTS + ("conv3d", "scan")}
    acc = {}
    counts = {"flops": 0, "bytes": 0}
    active = []

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[key] = acc.get(key, 0.0) + time.perf_counter() - start
        return wrapper

    original_call = module_mod.Module.__call__

    def module_call(self, *args, **kwargs):
        part = roots.get(id(self))
        if part is None or active:
            return original_call(self, *args, **kwargs)
        active.append(part)
        start = time.perf_counter()
        try:
            return original_call(self, *args, **kwargs)
        finally:
            active.pop()
            acc[part] = acc.get(part, 0.0) + time.perf_counter() - start

    original_from_op = Tensor.__dict__["from_op"]

    def from_op(data, parents, op=None, capture=None):
        parents = list(parents)
        counts["bytes"] += data.nbytes + sum(p.data.nbytes for p, _ in parents)
        return original_from_op.__func__(data, parents, op, capture)

    def conv_flops(x, w, *rest):
        out = conv_fwd(x, w, *rest)
        counts["flops"] += 2 * out.size * int(np.prod(w.shape[1:]))
        return out

    def convt_flops(x, w, *rest):
        out = convt_fwd(x, w, *rest)
        counts["flops"] += 2 * x.size * int(np.prod(w.shape[1:]))
        return out

    def matmul_flops(a, b):
        out = matmul(a, b)
        counts["flops"] += 2 * out.size * np.shape(getattr(a, "data", a))[-1]
        return out

    def einsum_flops(subscripts, *operands):
        counts["flops"] += _einsum_flops(
            subscripts, [np.shape(getattr(o, "data", o)) for o in operands])
        return einsum(subscripts, *operands)

    conv_fwd, convt_fwd = ops_nn.conv3d_forward, ops_nn.conv_transpose3d_forward
    matmul, einsum = ops_basic.matmul, ops_basic.einsum
    conv3d, scan = ops_nn.conv3d, scan_mod.diagonal_scan
    patches = [
        (module_mod.Module, "__call__", module_call),
        (Tensor, "from_op", staticmethod(from_op)),
        (ops_nn, "conv3d_forward", conv_flops),
        (ops_nn, "conv_transpose3d_forward", convt_flops),
        (ops_basic, "matmul", matmul_flops), (T, "matmul", matmul_flops),
        (ops_basic, "einsum", einsum_flops), (T, "einsum", einsum_flops),
        (ops_nn, "conv3d", timed("conv3d", conv3d)),
        (T, "conv3d", timed("conv3d", conv3d)),
    ]
    import repro.ssm.mamba as mamba_mod
    import repro.ssm.s4d as s4d_mod
    for owner in (scan_mod, mamba_mod, s4d_mod):
        if getattr(owner, "diagonal_scan", None) is scan:
            patches.append((owner, "diagonal_scan", timed("scan", scan)))
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    batch = T.Tensor(np.asarray(clip, dtype=np.float64)[None])
    seen_counts = set()
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        for _ in range(repeats):
            acc.clear()
            counts.update(flops=0, bytes=0)
            with T.no_grad():
                model(batch)
            for key in times:
                times[key].append(acc.get(key, 0.0))
            seen_counts.add((counts["flops"], counts["bytes"]))
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
    result = {key: float(np.median(values)) for key, values in times.items()}
    result["flops"], result["bytes"] = min(seen_counts)
    result["repeatable"] = len(seen_counts) == 1
    return result
