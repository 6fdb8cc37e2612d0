"""Trace the stable solution branch and detect the fold by two methods.

The branch starts at a small lambda on the stable (minimal) solutions and is
continued until the stability index changes sign; the fold location is then
recovered both by regula falsi on the index and by the augmented Newton
solver, and cross-checked against the direct max-min ascent.
"""

from foldfinder import (abc_model, build_grid, continue_branch, detect_fold,
                        find_fold_direct)

grid = build_grid("interval", 63)
spec = abc_model(q=1.5, gamma=4.0)

branch = continue_branch(grid, spec, lam_start=1.0)
print("traced %d branch points, fold bracketed: %s"
      % (len(branch.records), branch.fold_bracketed))
print("%10s %12s %12s %8s" % ("lambda", "sup|u|", "energy", "delta"))
for rec in branch.records[:: max(1, len(branch.records) // 12)]:
    print("%10.6f %12.6f %12.6f %8.4f"
          % (rec.lam, rec.sup_norm, rec.energy, rec.delta))

det = detect_fold(grid, spec, branch)
direct = find_fold_direct(grid, spec)
print("regula falsi estimate   : %.12f" % det.lambda_bisect)
print("augmented Newton        : %.12f" % det.lambda_moore_spence)
print("direct max-min ascent   : %.12f" % direct.lam)
print("method disagreement     : %.2e"
      % abs(direct.lam - det.lambda_moore_spence))
