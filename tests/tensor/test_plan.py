"""Compiled inference plans: capture, compile, replay, identity, safety.

The contract under test is strict bitwise identity: for any supported
``no_grad`` forward, replaying the compiled plan produces exactly the
bytes the autograd tape produces — across batch shapes, across
consecutive replays, and after other inputs have passed through the
same arena.  Anything the compiler cannot prove aborts capture with
:class:`PlanCaptureError` instead of guessing.
"""

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.tensor import (
    PlanCaptureError, PlanExecutionError, Tensor, capture, einsum, no_grad,
    where,
)
from repro.tensor import functional as F


def rng(seed=0):
    return np.random.default_rng(seed)


def capture_and_check(fn, *examples, label=None):
    """Capture ``fn`` and assert bitwise identity on a fresh input set."""
    with no_grad():
        plan = capture(fn, *examples, label=label)
        fresh = [rng(1234).random(e.shape) for e in examples]
        expected = fn(*[Tensor(f) for f in fresh]).numpy()
        produced = plan.run(*fresh)
    assert produced.dtype == expected.dtype
    assert np.array_equal(produced, expected)
    return plan


class TestElementwiseAndShape:
    def test_elementwise_chain_bitwise(self):
        def fn(t):
            return ((t * 2.0 + 1.0).tanh() - t.sigmoid()).exp() / (t + 3.0)

        plan = capture_and_check(fn, rng().random((4, 5)))
        # adjacent dying-input elementwise steps write in place
        assert plan.stats()["fused_steps"] > 0

    def test_shape_ops_bitwise(self):
        def fn(t):
            a = t.reshape(2, 12).transpose((1, 0))
            b = a[3:9].reshape(2, 3, 2).swapaxes(0, 2)
            return (b + b.flip(1)).sum(axis=0)

        capture_and_check(fn, rng(3).random((2, 3, 4)))

    def test_reductions_and_softmax_bitwise(self):
        def fn(t):
            s = F.softmax(t, axis=-1) + F.log_softmax(t, axis=1)
            return s.mean(axis=0) + t.max(axis=0) + t.sum()

        capture_and_check(fn, rng(4).random((3, 4, 5)))

    def test_matmul_einsum_bitwise(self):
        w = rng(5).standard_normal((6, 4))

        def fn(t):
            projected = t @ Tensor(w)
            return einsum("bi,bj->ij", projected, projected)

        capture_and_check(fn, rng(6).random((8, 6)))

    def test_constant_folding_prunes_weight_only_steps(self):
        w = Tensor(rng(7).random((3, 3)))

        def fn(t):
            static = (w * 2.0).exp()  # no input dependency: folds away
            return t @ static

        plan = capture_and_check(fn, rng(8).random((5, 3)))
        assert plan.stats()["folded_steps"] > 0


class TestCaptureFailure:
    def test_uninstrumented_op_aborts_capture(self):
        def fn(t):
            data = np.sort(t.data, axis=-1)
            return Tensor.from_op(data, [(t, lambda g: g)], op="sort")

        with no_grad(), pytest.raises(PlanCaptureError):
            capture(fn, rng(9).random((2, 3)))

    def test_tensor_condition_where_aborts_capture(self):
        cond = Tensor((rng(10).random((2, 3)) > 0.5).astype(np.float64))

        def fn(t):
            return where(cond, t, t * 2.0)

        with no_grad(), pytest.raises(PlanCaptureError):
            capture(fn, rng(11).random((2, 3)))

    def test_baked_data_dependent_values_fail_validation(self):
        # an ndarray condition computed from the traced input would be
        # frozen into the plan; the second-input validation replay must
        # reject the capture rather than serve stale control flow
        def fn(t):
            mask = (t.data > 0.5).astype(np.float64)
            return t * Tensor(mask)

        with no_grad(), pytest.raises(PlanCaptureError):
            capture(fn, rng(12).random((4, 4)))


class TestReplayContract:
    def test_shape_mismatch_raises_execution_error(self):
        plan = capture_and_check(lambda t: t * 2.0 + 1.0, rng(13).random((2, 3)))
        with pytest.raises(PlanExecutionError):
            plan.run(rng(14).random((3, 3)))
        with pytest.raises(PlanExecutionError):
            plan.run(rng(14).random((2, 3)).astype(np.float32))

    def test_consecutive_replays_do_not_alias(self):
        plan = capture_and_check(lambda t: (t + 1.0).tanh(), rng(15).random((3, 3)))
        a_in, b_in = rng(16).random((3, 3)), rng(17).random((3, 3))
        with no_grad():
            out_a = plan.run(a_in)
            snapshot = out_a.copy()
            out_b = plan.run(b_in)
        # the second replay reuses the arena; the first result must be a
        # detached copy, not a view into recycled storage
        assert np.array_equal(out_a, snapshot)
        assert not np.shares_memory(out_a, out_b)

    def test_replay_does_not_mutate_input(self):
        plan = capture_and_check(lambda t: t * -1.0, rng(18).random((2, 2)))
        x = rng(19).random((2, 2))
        keep = x.copy()
        with no_grad():
            plan.run(x)
        assert np.array_equal(x, keep)


GRID = GridConfig(size_um=1.0, nx=8, ny=8, nz=2)


@pytest.fixture(scope="module")
def sdmpeb_model():
    nn.init.seed(0)
    model, _ = build_method("SDM-PEB", GRID)
    model.set_output_stats(0.5, 1.0)
    model.eval()
    return model


class TestFullModelIdentity:
    @pytest.mark.parametrize("batch", [1, 2, 4, 8])
    def test_sdmpeb_plan_matches_tape_bitwise(self, sdmpeb_model, batch):
        shape = (batch, 1) + GRID.shape
        x0 = rng(20 + batch).random(shape)
        x1 = rng(120 + batch).random(shape)
        with no_grad():
            plan = capture(lambda t: sdmpeb_model(t), x0, label=f"sdmpeb-b{batch}")
            for x in (x0, x1):
                expected = sdmpeb_model(Tensor(x)).numpy()
                assert np.array_equal(plan.run(x), expected)

    def test_sdmpeb_arena_reuse_is_safe(self, sdmpeb_model):
        shape = (2, 1) + GRID.shape
        x0, x1 = rng(30).random(shape), rng(31).random(shape)
        with no_grad():
            plan = capture(lambda t: sdmpeb_model(t), x0)
            first = plan.run(x0)
            snapshot = first.copy()
            plan.run(x1)
        assert np.array_equal(first, snapshot)

    def test_sdmpeb_compile_stats(self, sdmpeb_model):
        shape = (1, 1) + GRID.shape
        with no_grad():
            plan = capture(lambda t: sdmpeb_model(t), rng(32).random(shape))
        stats = plan.stats()
        assert stats["compiled_steps"] < stats["captured_steps"]
        assert stats["fused_steps"] > 0
        assert stats["arena_bytes"] > 0
        assert stats["replays"] >= 2  # the validation replays are counted


# ----------------------------------------------------------------------
# One plan == tape case per registered kernel
# ----------------------------------------------------------------------
from repro import tensor as T  # noqa: E402


def _conv_weights():
    return {
        "w": Tensor(rng(40).standard_normal((4, 2, 3, 3, 3))),
        "wt": Tensor(rng(41).standard_normal((2, 3, 3, 3, 3))),
        "cond": rng(42).random((3, 4)) > 0.5,
    }


CONST = _conv_weights()


def _lti_conv(t):
    from repro.ssm.s4d import LTISSM

    nn.init.seed(3)
    return LTISSM(channels=4, state_dim=2, mode="conv")(t)


def _scan(t):
    from repro.ssm.scan import diagonal_scan

    return diagonal_scan(t.sigmoid(), t * 0.5)


#: kernel name -> (traced function, example input shape); every function
#: stays finite on capture's standard-normal validation input
KERNEL_CASES = {
    "add": (lambda t: t + t * 2.0, (3, 4)),
    "sub": (lambda t: t - (t * 0.5), (3, 4)),
    "mul": (lambda t: t * t, (3, 4)),
    "div": (lambda t: t / (t * t + 1.0), (3, 4)),
    "neg": (lambda t: -(t * 2.0), (3, 4)),
    "exp": (lambda t: (t * 2.0).exp(), (3, 4)),
    "log": (lambda t: (t * t + 1.0).log(), (3, 4)),
    "sqrt": (lambda t: (t * t + 1.0).sqrt(), (3, 4)),
    "tanh": (lambda t: (t * 2.0).tanh(), (3, 4)),
    "abs": (lambda t: (t - 0.5).abs(), (3, 4)),
    "pow": (lambda t: (t * t + 1.0) ** -0.5, (3, 4)),
    "clip": (lambda t: (t * 2.0).clip(0.3, 1.2), (3, 4)),
    "sigmoid": (lambda t: (t * 4.0 - 2.0).sigmoid(), (3, 4)),
    "softplus": (lambda t: F.softplus(t * 8.0 - 4.0), (3, 4)),
    "leaky_relu": (lambda t: F.leaky_relu(t - 0.5, 0.1), (3, 4)),
    "maximum": (lambda t: F.relu(t - 0.5), (3, 4)),
    "minimum": (lambda t: T.minimum(t * 2.0, t.flip(1)), (3, 4)),
    "where": (lambda t: where(CONST["cond"], t * 2.0, t), (3, 4)),
    "sum": (lambda t: t.sum(axis=1, keepdims=True) + t, (3, 4)),
    "mean": (lambda t: t.mean(axis=0), (3, 4)),
    "max": (lambda t: t.max(axis=-1), (3, 4)),
    "detached_max": (lambda t: F.softmax(t, axis=-1), (3, 4)),
    "matmul": (lambda t: t @ t.transpose((1, 0)), (3, 4)),
    "einsum": (lambda t: einsum("ij,kj->ik", t, t * 2.0), (3, 4)),
    "copy": (lambda t: (t * 2.0).copy() + 1.0, (3, 4)),
    "reshape": (lambda t: t.transpose((1, 0)).reshape(12) * 2.0, (3, 4)),
    "transpose": (lambda t: t.transpose((1, 0)) @ t, (3, 4)),
    "swapaxes": (lambda t: t.swapaxes(0, 1) * 2.0, (3, 4)),
    "moveaxis": (lambda t: T.moveaxis(t, 0, 2) + 1.0, (2, 3, 4)),
    "flip": (lambda t: t.flip(0) - t, (3, 4)),
    "getitem": (lambda t: t[1:, ::2] * 2.0, (3, 4)),
    "broadcast_to": (lambda t: T.broadcast_to(t, (2, 3, 4)) * 2.0, (3, 4)),
    "repeat_interleave": (lambda t: T.repeat_interleave(t, 2, axis=1) + 1.0, (3, 4)),
    "pad": (lambda t: T.pad(t, [(1, 0), (2, 1)], 0.5) * 2.0, (3, 4)),
    "concatenate": (lambda t: T.concatenate([t, t * 2.0], axis=1), (3, 4)),
    "stack": (lambda t: T.stack([t, t + 1.0], axis=0), (3, 4)),
    "conv3d": (lambda t: T.conv3d(t, CONST["w"], stride=(1, 2, 2), padding=1, groups=2),
               (1, 4, 3, 6, 6)),
    "conv_transpose3d": (lambda t: T.conv_transpose3d(t, CONST["wt"], stride=(1, 2, 2),
                                                    padding=1, output_padding=(0, 1, 1))
                         * 2.0, (2, 2, 3, 4, 4)),
    "diagonal_scan": (_scan, (2, 5, 3, 2)),
    "lti_causal_conv": (_lti_conv, (1, 6, 4)),
}


def test_every_registered_kernel_has_a_plan_case():
    from repro.tensor import plan

    import repro.ssm  # noqa: F401  (registers the SSM kernels)

    assert set(plan._KERNELS) == set(KERNEL_CASES)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_registered_kernel_plan_matches_tape(name, monkeypatch):
    from repro.tensor import plan

    import repro.ssm  # noqa: F401

    fn, shape = KERNEL_CASES[name]
    kernel = plan._KERNELS[name]
    calls = []

    def counted(*args, **kwargs):
        calls.append("out" in kwargs)
        return kernel.fn(*args, **kwargs)

    def counted_bind(*args, **kwargs):
        calls.append("out" in kwargs)
        return kernel.bind(*args, **kwargs)

    monkeypatch.setitem(plan._KERNELS, name, kernel._replace(
        fn=counted, bind=kernel.bind and counted_bind))
    example = rng(50).random(shape)
    with no_grad():
        compiled = capture(fn, example, label=name)
        for seed in (51, 52):
            x = rng(seed).random(shape)
            expected = fn(Tensor(x)).numpy()
            replayed = compiled.run(x)
            assert replayed.dtype == expected.dtype
            assert replayed.tobytes() == expected.tobytes()
    # the case really compiles the kernel: a view op is resolved by one
    # compile-time call, everything else (and a strided reshape's copy)
    # replays it with out=
    assert calls
    if not kernel.view or name == "reshape":
        assert True in calls


def _minimum_onto_b(t):
    a = t + 1.0          # still live after the select, so b's buffer is reused
    return T.minimum(a, t * 2.0) * a


@pytest.mark.parametrize("name,fn,operand", [
    ("sigmoid", lambda t: (t * 4.0 - 2.0).sigmoid(), 0),
    ("maximum", lambda t: F.relu(t * 2.0 - 1.0), 0),
    ("minimum", _minimum_onto_b, 1),
    ("where", lambda t: where(CONST["cond"], t * 2.0, t * 3.0), 0),
], ids=["sigmoid", "maximum-a", "minimum-b", "where-a"])
def test_multi_step_kernels_fuse_in_place_bitwise(name, fn, operand, monkeypatch):
    """A multi-step kernel handed a dying input's own buffer as ``out``
    must read everything it needs before overwriting it."""
    from repro.tensor import plan

    kernel = plan._KERNELS[name]
    aliased = []

    def spy(*args, out=None, **params):
        if out is not None:
            aliased.append([i for i, arg in enumerate(args) if arg is out])
        return kernel.fn(*args, out=out, **params)

    monkeypatch.setitem(plan._KERNELS, name, kernel._replace(fn=spy))
    capture_and_check(fn, rng(53).random((3, 4)) * 2.0 - 1.0)
    assert aliased and all(hit == [operand] for hit in aliased)


def test_advanced_indexing_aborts_capture():
    # an index array copies instead of viewing; getitem has no out= form
    with no_grad(), pytest.raises(PlanCaptureError, match="getitem"):
        capture(lambda t: t[np.array([2, 0])] * 2.0, rng(54).random((3, 4)))
