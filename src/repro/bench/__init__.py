"""Benchmark harness shared by all table/figure reproductions."""

from .harness import (BENCH_VOCAB, baseline_latency_ms, cortex_latency_ms,
                      cortex_model, format_table, paper_inputs, speedup)

__all__ = ["BENCH_VOCAB", "baseline_latency_ms", "cortex_latency_ms",
           "cortex_model", "format_table", "paper_inputs", "speedup"]
