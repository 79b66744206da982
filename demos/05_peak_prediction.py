"""Predicting a peak that has not happened yet.

Two exercises on bundled snapshots:

1. Norway truncated at 1999 (two years before its actual peak): can the
   model called on pre-peak data locate the 2001 peak?
2. Kazakhstan 1992-2014, still growing in-window: where is the peak?

Both use the conditional peak estimate anchored at a recent observation,
which is the version that matters for planning.  Peak estimates from a
still-growing series are extremely sensitive to the exact data values:
expect wide error bars for Kazakhstan, and different numbers if the
snapshot is replaced with another vintage of the statistics.
"""

from hubbertfit import datasets
import hubbertfit as hf

# --- exercise 1: hindcast on the truncated series
pre = datasets.load_norway(last_year=1999)
fit = hf.fit(pre, urr=datasets.NORWAY_URR, seed=3)
peak = hf.estimate_peak(fit, y=3019.0, s=1999.0)
print("Norway, data to 1999 only:")
print(f"  predicted peak year {peak.peak_time:.3f} +- {peak.peak_time_se:.3f} "
      "(actual: 2001)")
print(f"  predicted peak rate {peak.peak:.1f} +- {peak.peak_se:.1f} "
      "(actual: 3226)")

# --- exercise 2: a series whose peak is still ahead
kaz = datasets.load_kazakhstan()
fit_kaz = hf.fit(kaz, urr=datasets.KAZAKHSTAN_URR, seed=3)
peak_kaz = hf.estimate_peak(fit_kaz, y=1632.0, s=2014.0)
print("\nKazakhstan, data to 2014:")
print(f"  predicted peak year {peak_kaz.peak_time:.3f} +- {peak_kaz.peak_time_se:.3f}")
print(f"  predicted peak rate {peak_kaz.peak:.1f} +- {peak_kaz.peak_se:.1f}")
print(f"  peak already passed in-window: {peak_kaz.peak_time <= kaz.t_last}")

fc = hf.forecast(fit_kaz, s=2014.0, x_s=1632.0, horizon_times=range(2015, 2041, 5))
print("\n  year   mean    95% band")
for t, m, lo, hi in zip(fc.times, fc.point, fc.lower, fc.upper):
    print(f"  {t:.0f} {m:8.1f}   [{lo:8.1f}, {hi:8.1f}]")
