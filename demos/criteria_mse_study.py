"""Which criterion actually tracks fresh-point error?

Head-to-head mean-squared-error comparison of the criteria as estimators
of fresh-point error, against two targets: the per-replicate error of the
fitted model (noise variance added analytically, squared miss averaged
over a large test set), and the paper's ErrR, that error averaged over
training sets, estimated as its mean over the replicates.  Two cells of
the same high-dimensional design: a linear mean, where least squares is
unbiased, and an abs-sum mean, where it is not.

Desk-scale replicate counts; the pattern is the point, not the digits.
RCp wins when the model is unbiased because it is a deterministic shift of
RSS/n -- no leverage noise.  Against ErrR it wins by more than 10x.
Against the per-replicate target no function of RSS can score below that
target's variance, which comes mostly from the noise in the fitted
coefficients for a given X, so the win shrinks to about 2.5x.  Under
misspecification its fixed shift misses the bias term and OCV takes over.
RCp+ adds an estimated excess-bias term to RCp and lands near OCV in both
cells.
"""

from randomx_eval import (
    CovariateModel,
    MeanModel,
    NoiseModel,
    ScenarioConfig,
    run_criteria_study,
)

n, p, sigma, reps = 100, 50, 20.0, 300
block = CovariateModel.normal_block(p, 5, 0.9)
labels = ["linear mean (unbiased fit)", "abs-sum mean (biased fit)"]
scenarios = [
    ScenarioConfig(covariates=block, mean=mean, noise=NoiseModel(sigma),
                   n=n, test_m=2000, reps=reps, seed=1, name=label)
    for mean, label in zip([MeanModel.linear_sum(), MeanModel.abs_sum(0.75)], labels)
]
# one replicate loop: both cells fit the same X and noise and score on the same test rows
rows = run_criteria_study(scenarios, threads=2)

for label in labels:
    print(f"\n{label}: n={n}, p={p}, sigma={sigma:g}, {reps} replicates")
    print(f"  {'method':<8} {'mse':>10} {'bias^2':>10} {'variance':>10} {'vs OCV':>8}"
          f" {'mse ErrR':>10} {'vs OCV':>8}")
    for r in (r for r in rows if r.scenario == label):
        print(f"  {r.method:<8} {r.mse:10.1f} {r.bias2:10.1f} "
              f"{r.variance:10.1f} {r.rel_to_ocv:8.3f}"
              f" {r.mse_err_r:10.1f} {r.rel_to_ocv_err_r:8.3f}")
