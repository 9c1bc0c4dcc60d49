"""Known-bad fixture: OBS001 triggers (tests pin line numbers)."""

from repro.obs import METRICS


def instrument(batch):
    METRICS.counter("records").inc(len(batch))
    METRICS.gauge("app.depth").set(3)
    METRICS.histogram("Latency.Sim").observe(0.5)
    METRICS.counter("app.records").labels(user="u1").inc()
    METRICS.counter("app.records").labels(tenant="t0").inc()
    METRICS.counter("app.records").child((("user", "u1"),)).inc()
