"""Known-bad fixture: OBS001 triggers (tests pin line numbers)."""

from repro.obs import METRICS


def instrument(batch):
    METRICS.counter("records").inc(len(batch))
    METRICS.gauge("app.depth").set(3)
    METRICS.histogram("Latency.Sim").observe(0.5)
