"""Operator latency/memory predictors: the analytical roofline and the offline lookup table.

Both are stdlib-only.  The Fig. 10b DNN predictor lives in :mod:`repro.predictor.dnn`
and is imported from there; it needs numpy (the ``dnn`` extra).
"""

from repro.predictor.analytical import AnalyticalPredictor, OperatorEstimate
from repro.predictor.lookup import OperatorProfileTable

__all__ = [
    "AnalyticalPredictor",
    "OperatorEstimate",
    "OperatorProfileTable",
]
