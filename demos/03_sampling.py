"""
Exact sampling
==============

Draws visit the window's sites in order: each site is kept with its
conditional probability given the sites before it, the diagonal entry of
the running Schur complement of the kernel, and the complement is updated
by one rank-one step after every site.  No eigendecomposition is needed, and
a whole batch of draws runs at once.  The output distribution is the window
law itself (no burn-in, no mixing time), which the enumeration below
confirms.  Each draw takes one uniform per site, so a batch gives the same
draws as one ``sample`` call after another on the same stream.
"""

import numpy as np

from kawasaki_dpp import (
    AdmissiblePair,
    SeededRng,
    empirical_correlation,
    enumerate_distribution,
    kernel_matrix,
    sample,
    sample_many,
)
from kawasaki_dpp.kernel import Site, Window

pair = AdmissiblePair(1.5, 1.7)
window = Window.from_indices(-4, 3)
k = kernel_matrix(pair, window)

rng = SeededRng(seed=20240)
n_samples = 50_000
draws = sample_many(k, rng, n_samples)

# ------------------------------------------------------------- a few samples
print("ten draws (lowest site first):")
for config in draws[:10]:
    print("  ", config)

# --------------------------------------------------- empirical vs exact law
pmf = enumerate_distribution(k)
counts = np.bincount([c.bitmask for c in draws], minlength=1 << window.size)
tv = 0.5 * float(np.abs(counts / n_samples - pmf.probs).sum())
print(f"\ntotal variation to the exact law after {n_samples} draws: {tv:.4f}")

mean_count = float(np.mean([c.particle_count for c in draws]))
print(f"mean particle count {mean_count:.4f} vs trace {k.trace:.4f}")

lam = np.clip(k.eigenvalues, 0.0, 1.0)
exact_var = float((lam * (1.0 - lam)).sum())
print(f"count variance      {np.var([c.particle_count for c in draws]):.4f} "
      f"vs sum lambda(1-lambda) = {exact_var:.4f}")

# ------------------------------------------------------ correlation estimates
for sites in ([Site(-4)], [Site(-4), Site(-3)], [Site(0), Site(1)]):
    got = empirical_correlation(draws, sites)
    want = pmf.occupied_marginal(sites)
    print(f"P(all of {tuple(str(s) for s in sites)} occupied): "
          f"empirical {got:.4f}, exact {want:.4f}")

# ------------------------------------------------------------- reproducibility
replay_rng = SeededRng(seed=20240)
again = [sample(k, replay_rng).bitmask for _ in range(5)]
print("\nsame seed, one draw at a time, same draws:", again == [c.bitmask for c in draws[:5]])
