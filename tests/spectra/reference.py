"""The per-oscillator response-spectrum loop the solver used to run.

Each oscillator's histories come from ``scipy.signal.lfilter`` on the
cached grid filters, with fresh initial states, and each peak is
``np.max(np.abs(.))``.  ``response_spectrum_nigam_jennings`` calls
the compiled filter directly, takes peaks from ``max``/``min`` and
reuses one total-acceleration buffer; the equivalence tests in
``test_response_floor.py`` hold it to this loop bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from repro.spectra import response as response_module


def nigam_jennings_loop(acc, dt, config):
    """``(sd, sv, sa)`` of the spectrum, one ``lfilter`` pair per oscillator."""
    p = -np.asarray(acc, dtype=float)
    filters = response_module._oscillator_filters(dt, config.periods, config.dampings)
    n_t = config.periods.size
    shape = (len(config.dampings), n_t)
    sd, sv, sa = np.empty(shape), np.empty(shape), np.empty(shape)
    for di, zeta in enumerate(config.dampings):
        for ti, period in enumerate(config.periods):
            k = di * n_t + ti
            den = filters.den[k]
            x, _ = lfilter(filters.num_x[k], den, p, zi=p[0] * filters.zi_x[k])
            v, _ = lfilter(filters.num_v[k], den, p, zi=p[0] * filters.zi_v[k])
            w = 2.0 * np.pi / period
            ta = -2.0 * zeta * w * v - w * w * x
            sd[di, ti] = np.max(np.abs(x))
            if config.pseudo:
                sv[di, ti] = w * sd[di, ti]
                sa[di, ti] = w * w * sd[di, ti]
            else:
                sv[di, ti] = np.max(np.abs(v))
                sa[di, ti] = np.max(np.abs(ta))
    return sd, sv, sa
