"""What the traced run wraps and which metrics the benchmark emits.

The layers are the package modules. ``TRACED`` lists the public functions
the traced run wraps, each with the metric prefix its
``<prefix>.{calls,self_ms,fail}`` figures carry. ``split_algebra`` is not
traced: no CLI path and no acceptance criterion calls it.
"""

# (module under cmc_elliptic, attribute path, metric prefix). A dotted path
# names a method; "WpEvaluator.__init__" is the evaluator's construction.
# Metric names must start with a letter, so _ratpoly reports as "ratpoly".
TRACED = (
    ("profiles", "profile_point", "profiles.profile_point"),
    ("profiles", "mesh", "profiles.mesh"),
    ("profiles", "mean_curvature", "profiles.mean_curvature"),
    ("cli_io", "main", "cli_io.main"),
    ("weierstrass", "WpEvaluator.__init__", "weierstrass.WpEvaluator"),
    ("weierstrass", "WpEvaluator.wp", "weierstrass.wp"),
    ("weierstrass", "WpEvaluator.wp_inverse", "weierstrass.wp_inverse"),
    ("weierstrass", "WpEvaluator.wp_integral", "weierstrass.wp_integral"),
    ("wp_chain", "curve_from_wp", "wp_chain.curve_from_wp"),
    ("wp_chain", "chain_config", "wp_chain.chain_config"),
    ("wp_chain", "differentiate_chain", "wp_chain.differentiate_chain"),
    ("wp_chain", "polynomiality_probe", "wp_chain.polynomiality_probe"),
    ("wp_chain", "eval_chain_term", "wp_chain.eval_chain_term"),
    ("elliptic_reduction", "reduce", "elliptic_reduction.reduce"),
    ("elliptic_reduction", "singular_B", "elliptic_reduction.singular_B"),
    ("elliptic_reduction", "reduction_report",
     "elliptic_reduction.reduction_report"),
    ("elliptic_reduction", "discriminant_poly",
     "elliptic_reduction.discriminant_poly"),
    ("_ratpoly", "isolate_positive_roots", "ratpoly.isolate_positive_roots"),
    ("_ratpoly", "refine_root", "ratpoly.refine_root"),
    ("_ratpoly", "count_positive_roots", "ratpoly.count_positive_roots"),
) + tuple(("acceptance", f"criterion_{n}", f"acceptance.criterion_{n}")
          for n in range(1, 11))

# Spans whose distinct-argument share is reported as <prefix>.distinct_ratio:
# distinct keys over calls, the calls figure being its base (0 when uncalled).
DISTINCT_KEYS = {
    "weierstrass.WpEvaluator": lambda args: (args[1], args[2]),  # (g2, g3)
    "elliptic_reduction.singular_B": lambda args: args[0],       # family
}

# cli_io.main returns an exit code instead of raising; nonzero counts as fail.
FAIL_ON_NONZERO = {"cli_io.main"}

SPAN_FIGURES = (("calls", "count"), ("self_ms", "ms"), ("fail", "count"))

EXTRA_PER_LAYER = (
    ("cli_io.bytes_out", "bytes"),
    ("weierstrass.WpEvaluator.distinct_ratio", "ratio"),
    ("elliptic_reduction.singular_B.distinct_ratio", "ratio"),
    ("import.cmc_elliptic_ms", "ms"),
    ("import.scipy_ms", "ms"),
    ("trace_overhead", "ratio"),
    ("fail_ratio", "ratio"),
)

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """Every per-layer metric the traced run emits, as (name, unit)."""
    spans = [(f"{prefix}.{fig}", unit) for _, _, prefix in TRACED
             for fig, unit in SPAN_FIGURES]
    return spans + list(EXTRA_PER_LAYER)

