import numpy as np
import pytest

from panoptic4d.autodiff import Tensor
from panoptic4d.errors import ContractError, FormatError, ParameterError
from panoptic4d.nn import load_parameters
from panoptic4d.optim import (
    STEP_CHUNK,
    AdamW,
    load_checkpoint,
    one_cycle_lr,
    save_checkpoint,
)

from oracles import OneCycleSchedule, adam_reference, loop_adamw_step, whole_array_adamw_step


def make_params(rng, shapes):
    return {f"p{i}": Tensor(rng.normal(size=s), requires_grad=True) for i, s in enumerate(shapes)}


class TestAdamW:
    def test_decay_only_with_zero_grads(self):
        p = Tensor(np.array([2.0, -4.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(p.values, np.array([2.0, -4.0]) * (1 - 0.001))

    def test_zero_lr_keeps_params(self):
        rng = np.random.default_rng(0)
        params = make_params(rng, [(3, 2), (4,)])
        before = {k: p.values.copy() for k, p in params.items()}
        opt = AdamW(params, lr=0.5, weight_decay=0.01)
        for _ in range(5):
            for p in params.values():
                p.grad[...] = rng.normal(size=p.values.shape)
            opt.step(lr=0.0)
        for k, p in params.items():
            np.testing.assert_array_equal(p.values, before[k])

    def test_constant_grad_step_magnitude_approaches_lr(self):
        # long-run Adam step on a constant gradient has magnitude ~ lr
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.0)
        prev = p.values.copy()
        for _ in range(1000):
            p.grad[...] = 1.0
            prev = p.values.copy()
            opt.step()
        last_step = abs(float(p.values[0] - prev[0]))
        assert last_step == pytest.approx(0.01, rel=0.05)

    def test_wd_zero_matches_plain_adam_oracle(self):
        rng = np.random.default_rng(1)
        theta0 = rng.normal(size=(3,))
        grads = [rng.normal(size=(3,)) for _ in range(50)]
        p = Tensor(theta0.copy(), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.05, weight_decay=0.0)
        for g in grads:
            p.grad[...] = g
            opt.step()
        expected = adam_reference(theta0, grads, 0.05, 0.9, 0.999, 1e-8)
        np.testing.assert_allclose(p.values, expected, atol=1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_flat_step_equals_per_tensor_loop(self, weight_decay):
        rng = np.random.default_rng(5)
        shapes = [(3, 4), (4,), (), (2, 3, 2), (1,)]
        flat = make_params(rng, shapes)
        loop = {k: Tensor(p.values.copy(), requires_grad=True) for k, p in flat.items()}
        m = {k: np.zeros_like(p.values) for k, p in loop.items()}
        v = {k: np.zeros_like(p.values) for k, p in loop.items()}
        opt = AdamW(flat, lr=0.03, weight_decay=weight_decay)
        for t in range(1, 21):
            lr = 0.03 * (1.0 + np.sin(t))
            opt.zero_grad()
            for k in flat:
                g = rng.normal(size=flat[k].values.shape)
                flat[k].grad[...] += g
                loop[k].grad[...] = g
            opt.step(lr)
            loop_adamw_step(loop, m, v, t, lr, weight_decay=weight_decay)
            for k in flat:
                assert np.array_equal(flat[k].values, loop[k].values), (k, t)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_chunked_step_equals_whole_array_formula(self, weight_decay):
        rng = np.random.default_rng(8)
        shapes = [(STEP_CHUNK + 5,), (7, 3000), (123,)]  # two slices, the second partial
        params = make_params(rng, shapes)
        values = np.concatenate([p.values.ravel() for p in params.values()])
        m, v = np.zeros(values.size), np.zeros(values.size)
        opt = AdamW(params, lr=0.02, weight_decay=weight_decay)
        assert values.size % STEP_CHUNK
        assert [a.shape for a in opt._scratch] == [(STEP_CHUNK,)] * 2
        for t in range(1, 6):
            g = rng.normal(size=values.size)
            opt._grads[...] = g
            opt.step(0.02 * t)
            whole_array_adamw_step(values, g, m, v, t, 0.02 * t, weight_decay=weight_decay)
            assert np.array_equal(opt._values, values), t
            assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v), t

    def test_rebound_parameter_fails_loudly(self):
        rng = np.random.default_rng(6)
        params = make_params(rng, [(2, 2), (3,)])
        opt = AdamW(params, lr=0.1)
        opt.step()
        params["p1"].values = params["p1"].values.copy()
        with pytest.raises(ContractError, match="'p1'"):
            opt.step()
        params = make_params(rng, [(2, 2)])
        opt = AdamW(params)
        params["p0"].grad = np.zeros((2, 2))
        with pytest.raises(ContractError, match="'p0'"):
            opt.step()

    def test_duplicate_tensor_rejected(self):
        p = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError, match="same tensor"):
            AdamW({"a": p, "b": p})

    def test_load_parameters_writes_into_flat_buffer(self):
        rng = np.random.default_rng(7)
        params = make_params(rng, [(2, 3), (4,)])
        opt = AdamW(params, lr=0.0, weight_decay=0.0)
        new = {k: rng.normal(size=p.values.shape) for k, p in params.items()}
        load_parameters(params, new, "new.ckpt")
        opt.step()  # zero lr: the step keeps exactly what was loaded
        for k, p in params.items():
            np.testing.assert_array_equal(p.values, new[k])
        opt.lr = 0.1
        for p in params.values():
            p.grad[...] = 1.0
        opt.step()
        for k, p in params.items():
            assert np.all(p.values < new[k])


class TestOneCycle:
    def test_endpoints_and_peak(self):
        warm = 30  # round(0.3 * 100)
        assert one_cycle_lr(0, 101, 1.0, 0.3) == pytest.approx(1.0 / 25.0)
        assert one_cycle_lr(warm, 101, 1.0, 0.3) == pytest.approx(1.0)
        assert one_cycle_lr(100, 101, 1.0, 0.3) == pytest.approx(1.0 / 1e4)

    def test_monotone_ramp_then_anneal(self):
        warm = 30  # round(0.3 * 99)
        lrs = [one_cycle_lr(s, 100, 2e-4, 0.3) for s in range(100)]
        for s in range(warm):
            assert lrs[s + 1] > lrs[s]
        for s in range(warm, 99):
            assert lrs[s + 1] < lrs[s]
        assert all(lr > 0 for lr in lrs)

    def test_out_of_range(self):
        with pytest.raises(ParameterError, match="step 10 outside schedule of 10 steps"):
            one_cycle_lr(10, 10, 1.0, 0.3)
        with pytest.raises(ParameterError):
            one_cycle_lr(-1, 10, 1.0, 0.3)

    @pytest.mark.parametrize(
        "steps, warmup_frac",
        [
            (1, 0.3), (1, 0.0), (1, 1.0), (2, 0.5), (7, 0.0), (7, 1.0),
            (10, 0.3), (150, 0.3), (1500, 0.3),
        ],
    )
    def test_matches_the_schedule_class_it_replaced(self, steps, warmup_frac):
        for max_lr in (1e-3, 2e-4):
            sched = OneCycleSchedule(max_lr, steps, warmup_frac)
            for step in range(steps):
                got = float(one_cycle_lr(step, steps, max_lr, warmup_frac))
                assert got.hex() == float(sched.lr(step)).hex(), step


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        params = {
            "backbone.enc0.w": Tensor(rng.normal(size=(5, 8)), requires_grad=True),
            "bias": Tensor(rng.normal(size=(8,)), requires_grad=True),
            "scalar": Tensor(3.5, requires_grad=True),
        }
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, config_text="dim = 8\n")
        values, cfg = load_checkpoint(path)
        assert cfg == "dim = 8\n"
        assert set(values) == set(params)
        for k in params:
            np.testing.assert_array_equal(values[k], params[k].values)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(3)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, {"w": Tensor(rng.normal(size=(4, 4)))})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.byte_offset is not None

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(str(path))
