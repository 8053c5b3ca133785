import numpy as np
import pytest

from coadjoint.diagnostics import observable_series, strong_error
from coadjoint.dynamics import (
    casimir,
    lie_poisson_system,
    phase_space_system,
    reconstruct_momentum,
)
from coadjoint.integrators import integrate
from coadjoint.noise import NoiseSpec, coarsen, sample_grid
from coadjoint import validation
from coadjoint.validation import (
    K_RIGID,
    L_RIGID,
    M0,
    M0_PHASE,
    NOISE_PAIR,
    SO3,
    SO3_CHART,
    X0_PHASE,
    XI_PAIR,
    _coupled_study,
    run_suite,
)

LP = lie_poisson_system(SO3, K_RIGID, NOISE_PAIR)
PS = phase_space_system(L_RIGID, NOISE_PAIR)

STUDIES = {
    "heun-vs-euler-ito": ([(LP, "heun_strat", M0), (LP, "euler_ito", M0)], strong_error),
    "casimir-drift": ([(LP, "heun_strat", M0)],
                      lambda traj: observable_series(traj, casimir(SO3)).sup()),
    "phase-vs-collective": ([(PS, "heun_strat", X0_PHASE), (LP, "heun_strat", M0_PHASE)],
                            lambda tp, tl: strong_error(reconstruct_momentum(tp, SO3_CHART), tl)),
}


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_batched_study_equals_seed_by_seed(study):
    # the seeds step as one batch; each number must equal the seed-by-seed
    # study on separate integrate calls exactly
    runs, error = STUDIES[study]
    seeds, exponents = 3, range(4, 7)
    top = max(exponents)
    per_seed = []
    for seed in range(seeds):
        fine = sample_grid(NoiseSpec(channels=2, xi=XI_PAIR, seed=seed), 1.0, 2 ** top)
        per_seed.append([
            error(*(integrate(sys, scheme, coarsen(fine, 2 ** (top - ex)), x0)
                    for sys, scheme, x0 in runs))
            for ex in exponents])
    hs, errs = _coupled_study(seeds, exponents, runs, error)
    assert hs == [2.0 ** -ex for ex in exponents]
    assert np.array_equal(errs, np.mean(per_seed, axis=0))


def test_collectivize_refuses_zero_seeds_before_any_work(monkeypatch):
    def integrate_called(*args, **kwargs):
        raise AssertionError("integrated before refusing --seeds 0")

    monkeypatch.setattr(validation, "integrate", integrate_called)
    with pytest.raises(ValueError, match="--seeds: need at least 1 seed, got 0"):
        run_suite("collectivize", seeds=0)
