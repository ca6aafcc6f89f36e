"""Every function that takes a leading trial axis gives, for a stack of
trials, each trial's own result bit for bit: the stacked kernels (matmul,
einsum, svd, eigvalsh, axis reductions) run trial by trial inside numpy,
and a trial's random draws come from its own generator."""

import numpy as np
import pytest

from dmasim import channels
from dmasim.benchmarks import (
    data_aided_estimate,
    oracle_weights,
    pilot_aided_estimate,
    pilot_aided_h,
    pilot_aided_m,
    semi_unitary_h,
    semi_unitary_x,
)
from dmasim.channels import (
    full_column_rank,
    gen_dft_training,
    gen_inner_random_phase,
    gen_lorentzian_training,
    gen_pilots,
    gen_wireless,
    qam_alphabet,
    qam_indices,
    training_spectrum,
)
from dmasim.metrics import diagonal_fit, nmse, ser
from dmasim.receiver import (
    BalsConfig,
    rank1_factorize,
    remove_ambiguity,
    two_stage_estimate,
)
from dmasim.signals import add_noise, build_noiseless, build_rank_one
from dmasim.tensor_ops import squared_norms, unfold_mode1, unfold_mode2

TRIALS = 3
K, T, P, N = 4, 6, 8, 5


def _gens(seed):
    return [np.random.default_rng([seed, trial]) for trial in range(TRIALS)]


def _same(stacked, singles):
    np.testing.assert_array_equal(stacked, np.stack(singles))
    assert np.asarray(stacked).tobytes() == np.stack(singles).tobytes()


def _stack(seed, training="lorentzian", pilots=False):
    """A stack of scenes drawn as the campaign draws a block of trials."""
    h = gen_wireless(K, N, _gens(seed))
    m = gen_inner_random_phase(N, _gens(seed + 1))
    if pilots:
        s_idx, s = None, np.broadcast_to(gen_pilots(T), (TRIALS, T))
    else:
        s_idx = qam_indices(T, 16, _gens(seed + 2))
        s = qam_alphabet(16)[s_idx]
    if training == "lorentzian":
        f = gen_lorentzian_training(P, N, _gens(seed + 3))
    else:
        f = gen_dft_training(P, N)
    x = build_rank_one(s, m)
    rt = build_noiseless(h, x, f)
    y = add_noise(rt, 10.0, _gens(seed + 4)).y
    return dict(h=h, m=m, s=s, s_idx=s_idx, f=f, x=x, y=y)


def _trial(stack, i):
    f = stack["f"]
    return {
        name: (f if name == "f" and f.ndim == 2 else value[i])
        for name, value in stack.items()
        if value is not None
    }


def test_generators_draw_each_trial_from_its_own_stream():
    for draw in (
        lambda rng: gen_wireless(K, N, rng),
        lambda rng: gen_inner_random_phase(N, rng),
        lambda rng: qam_indices(T, 64, rng),
        lambda rng: gen_lorentzian_training(P, N, rng),
    ):
        _same(draw(_gens(7)), [draw(gen) for gen in _gens(7)])


def test_rejected_trainings_redraw_from_their_own_streams(monkeypatch):
    # Reject the first draw of the second trial only: it alone draws again.
    real, seen = channels.full_column_rank, []

    def reject_once(f):
        full = np.array(real(f))
        if full.ndim and not seen:
            seen.append(True)
            full[1] = False
        return full

    monkeypatch.setattr(channels, "full_column_rank", reject_once)
    stacked = gen_lorentzian_training(P, N, _gens(8))
    singles = [gen_lorentzian_training(P, N, gen) for gen in _gens(8)]
    again = _gens(8)[1]
    again.uniform(0.0, 2.0 * np.pi, size=(P, N))  # the rejected draw
    singles[1] = gen_lorentzian_training(P, N, again)
    _same(stacked, singles)


def test_spectrum_and_rank_of_a_stack_are_each_trainings():
    f = gen_lorentzian_training(P, N, _gens(9))
    gram, low, high = training_spectrum(f)
    for i in range(TRIALS):
        single = np.array(f[i])
        want = training_spectrum(single)
        np.testing.assert_array_equal(gram[i], want[0])
        assert (low[i], high[i]) == want[1:]
    assert full_column_rank(f).tolist() == [True] * TRIALS


def test_blocks_and_noise_of_a_stack_are_each_trials():
    stack = _stack(10)
    gens = _gens(14)
    singles = []
    for i, gen in enumerate(gens):
        trial = _trial(stack, i)
        x = build_rank_one(trial["s"], trial["m"])
        rt = build_noiseless(trial["h"], x, trial["f"])
        singles.append(add_noise(rt, 10.0, gen).y)
    _same(stack["y"], singles)


def test_add_noise_in_place_equals_a_new_block():
    stack = _stack(11)
    rt = build_noiseless(stack["h"], stack["x"], stack["f"])
    new = add_noise(rt, 5.0, _gens(3))
    assert new.y is not rt.y
    in_place = add_noise(rt, 5.0, _gens(3), out=rt.y)
    assert in_place.y is rt.y
    assert new.y.tobytes() == in_place.y.tobytes()
    np.testing.assert_array_equal(new.noise_variance, in_place.noise_variance)


@pytest.mark.parametrize("shape", [(TRIALS, K, N), (TRIALS, N), (TRIALS, K, T, P)])
def test_squared_norms_are_numpys_norm_squared(shape):
    rng = np.random.default_rng(12)
    real = rng.standard_normal(shape)
    for a in (real, real + 1j * rng.standard_normal(shape)):
        got = squared_norms(a, len(shape) - 1)
        assert got.tolist() == [float(np.linalg.norm(t)) ** 2 for t in a]


def test_metrics_of_a_stack_are_each_trials():
    stack = _stack(13)
    rng = np.random.default_rng(13)
    h_hat = stack["h"] + 0.1 * rng.standard_normal(stack["h"].shape)
    m_hat = stack["m"] * 1.1
    delta = diagonal_fit(h_hat, stack["h"])
    _same(delta, [diagonal_fit(h_hat[i], stack["h"][i]) for i in range(TRIALS)])
    _same(
        nmse(h_hat, stack["h"], ndim=2),
        [nmse(h_hat[i], stack["h"][i]) for i in range(TRIALS)],
    )
    _same(
        nmse(m_hat, stack["m"], ndim=1),
        [nmse(m_hat[i], stack["m"][i]) for i in range(TRIALS)],
    )
    s_hat = stack["s"] + 0.3 * rng.standard_normal(stack["s"].shape)
    _same(
        ser(s_hat, stack["s_idx"], 16),
        [ser(s_hat[i], stack["s_idx"][i], 16) for i in range(TRIALS)],
    )


def test_stage_two_of_a_stack_is_each_trials():
    stack = _stack(15)
    x_hat = stack["x"] + 0.01 * _stack(16)["x"]
    split = rank1_factorize(x_hat)
    singles = [rank1_factorize(x_hat[i]) for i in range(TRIALS)]
    _same(split.s_hat, [one.s_hat for one in singles])
    _same(split.m_hat, [one.m_hat for one in singles])
    assert split.degenerate.tolist() == [one.degenerate for one in singles]
    refs = stack["s"][:, 0]
    anchored = remove_ambiguity(split.s_hat, split.m_hat, refs)
    for i in range(TRIALS):
        want = remove_ambiguity(singles[i].s_hat, singles[i].m_hat, refs[i])
        for got, ref in zip(anchored, want):
            assert got[i].tobytes() == ref.tobytes()


@pytest.mark.parametrize("training", ["lorentzian", "semi-unitary-dft"])
def test_the_receiver_on_a_stack_is_each_trials(training):
    stack = _stack(17, training=training)
    cfg = BalsConfig(max_iters=50)
    y, f, refs = stack["y"], stack["f"], stack["s"][:, 0]
    report = two_stage_estimate(y, f, refs, cfg, _gens(18))
    for i, gen in enumerate(_gens(18)):
        trial = _trial(stack, i)
        one = two_stage_estimate(trial["y"], trial["f"], trial["s"][0], cfg, gen)
        for name in ("h_hat", "m_hat", "s_hat"):
            assert getattr(report, name)[i].tobytes() == getattr(one, name).tobytes()
        assert report.iterations[i] == one.iterations
        assert report.residual_trace[i].tobytes() == one.residual_trace.tobytes()
        assert report.converged[i] == one.converged


def test_closed_forms_on_a_stack_are_each_trials():
    data, pilot = _stack(19, "semi-unitary-dft"), _stack(19, "semi-unitary-dft", True)
    f = data["f"]
    stacked = [
        data_aided_estimate(data["y"], f, data["s"], data["h"], data["m"]),
        pilot_aided_estimate(pilot["y"], f, pilot["h"], pilot["m"], pilot["s"]),
    ]
    m_tilde, h_tilde = oracle_weights(data["h"], data["m"])
    filters = [
        semi_unitary_h(unfold_mode1(data["y"]), f, data["x"], m_tilde),
        semi_unitary_x(unfold_mode2(data["y"]), f, data["h"], h_tilde),
        pilot_aided_h(unfold_mode1(pilot["y"]), f, pilot["s"], pilot["m"], m_tilde),
        pilot_aided_m(unfold_mode2(pilot["y"]), f, pilot["h"], h_tilde, pilot["s"]),
    ]
    for i in range(TRIALS):
        d, p = _trial(data, i), _trial(pilot, i)
        m_i, h_i = oracle_weights(d["h"], d["m"])
        singles = [
            data_aided_estimate(d["y"], f, d["s"], d["h"], d["m"]),
            pilot_aided_estimate(p["y"], f, p["h"], p["m"], p["s"]),
        ]
        for report, one in zip(stacked, singles):
            for name in ("h_hat", "m_hat", "s_hat"):
                got = getattr(report, name)[i]
                assert got.tobytes() == getattr(one, name).tobytes()
        want = [
            semi_unitary_h(unfold_mode1(d["y"]), f, d["x"], m_i),
            semi_unitary_x(unfold_mode2(d["y"]), f, d["h"], h_i),
            pilot_aided_h(unfold_mode1(p["y"]), f, p["s"], p["m"], m_i),
            pilot_aided_m(unfold_mode2(p["y"]), f, p["h"], h_i, p["s"]),
        ]
        for got, ref in zip(filters, want):
            assert got[i].tobytes() == ref.tobytes()
