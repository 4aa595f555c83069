"""Statistics: time series, run collection, comparison metrics."""

from .collector import RunStatsCollector
from .export import (
    flow_row,
    flows_to_csv,
    result_to_dict,
    result_to_json,
    summary_text,
)
from .metrics import (
    jain_fairness,
    mean_relative_error,
    percentiles,
    relative_error,
    rmse,
    speedup,
    summarize,
)
from .timeseries import TimeSeries

__all__ = [
    "RunStatsCollector",
    "flow_row",
    "flows_to_csv",
    "result_to_dict",
    "result_to_json",
    "summary_text",
    "TimeSeries",
    "jain_fairness",
    "mean_relative_error",
    "percentiles",
    "relative_error",
    "rmse",
    "speedup",
    "summarize",
]
