"""Session-wide test wiring for the observability env toggle.

``RINGO_TRACE=1 pytest`` arms the repro.obs tracer for the whole run,
so the entire suite doubles as an instrumentation soak (CI's
``obs-smoke`` job). ``RINGO_SANITIZE`` needs no wiring here — the
snapshot cache consults it directly on every conversion.
"""

import pytest

from repro import obs


@pytest.fixture(scope="session", autouse=True)
def _tracer_from_env():
    if not obs.env_enabled():
        yield
        return
    tracer = obs.enable_from_env()
    yield
    if tracer is not None and obs.current_tracer() is tracer:
        obs.disable()
