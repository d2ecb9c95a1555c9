"""Every model-selection criterion the package knows, on one dataset.

Draws a single (X, Y) sample, fits least squares, and prints the full
criteria report twice: once with the noise variance treated as known
(enables Cp, RCp, the excess-bias estimate, and RCp+) and once without.
Then verifies the leave-one-out shortcut against literal refits.
"""

import numpy as np

from randomx_eval import (
    CovariateModel,
    MeanModel,
    NoiseModel,
    SmootherSpec,
    criteria_report,
    draw_covariates,
    draw_response,
    fit,
    predict,
    stream,
)

n, p, sigma = 60, 8, 1.5
X = draw_covariates(CovariateModel.normal_block(p, 2, 0.6), n, stream(7, 0, 0))
Y, _ = draw_response(X, MeanModel.linear_sum(), NoiseModel(sigma), stream(7, 0, 1))
fitted = fit(SmootherSpec.least_squares(), X, Y)

rep = criteria_report(fitted, sigma2=sigma**2)
print(f"least squares fit, n={n}, p={p}, true sigma2={sigma**2:g}\n")
print(f"{'rss':<12}{rep.rss:.4f}")
print(f"{'sigma2_hat':<12}{rep.sigma2_hat:.4f}      rss/(n-p)")
print(f"{'cp':<12}{rep.cp:.4f}      in-sample error estimate")
print(f"{'rcp':<12}{rep.rcp:.4f}      cp + exact excess variance")
print(f"{'rcp_hat':<12}{rep.rcp_hat:.4f}      rcp with sigma2 estimated")
print(f"{'gcv':<12}{rep.gcv:.4f}")
print(f"{'ocv':<12}{rep.ocv:.4f}      leave-one-out, via leverages")
print(f"{'bplus_hat':<12}{rep.bplus_hat:.4f}      excess-bias estimate")
print(f"{'rcp_plus':<12}{rep.rcp_plus:.4f}      rcp + bplus_hat")

# without a known noise variance only the sigma2-free criteria survive
blind = criteria_report(fitted)
assert blind.cp is None and blind.rcp is None and blind.rcp_plus is None
print(f"\nwithout sigma2: rcp_hat={blind.rcp_hat:.4f} "
      f"gcv={blind.gcv:.4f} ocv={blind.ocv:.4f}")

# the OCV value above used no refitting -- check it against the real thing
errs = np.empty(n)
for i in range(n):
    keep = np.arange(n) != i
    held_out = fit(SmootherSpec.least_squares(), X[keep], Y[keep])
    errs[i] = Y[i] - predict(held_out, X[i : i + 1])[0]
literal = float(np.mean(errs**2))
print(f"\nOCV shortcut {rep.ocv:.12f} vs {n} literal refits {literal:.12f}")
print(f"relative gap {abs(rep.ocv - literal) / literal:.2e}")
