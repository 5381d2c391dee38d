"""The HTTP endpoint over a bare registry, for tests with no Service.

``repro.obs.http.routes_of`` serves anything that answers the four
questions a ``Service`` or a ``Supervisor`` answers; this is the
smallest such thing: one registry, the process's live profiler.
"""

from repro.obs import profile
from repro.obs.http import MetricsHttpServer, routes_of


class RegistrySource:
    def __init__(self, registry):
        self.registry = registry

    def metrics_text(self):
        return self.registry.render_prometheus()

    def profile_json(self):
        profiler = profile.active()
        return None if profiler is None else profiler.snapshot().to_json()

    def healthy(self):
        return True

    ready = healthy


def registry_endpoint(registry):
    """An unstarted endpoint serving *registry* (use as ``with``)."""
    return MetricsHttpServer(routes_of(RegistrySource(registry)))
