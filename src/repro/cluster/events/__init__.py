"""The ``event`` backend: coded iterations over per-worker network links.

:class:`EventDrivenIterationSim` prices every transfer on the worker's own
link, whose bandwidth a network scenario may degrade, and runs the closed
form's batched kernel on that schedule — see :mod:`repro.cluster.events.sim`
for the equivalence contract.  The link factors come from the draw
surface (:meth:`repro.cluster.speed_models.SpeedDraws.link_factors_batch`),
which routes them through composed scenarios.
"""

from repro.cluster.events.sim import EventDrivenIterationSim

__all__ = [
    "EventDrivenIterationSim",
    "available_backends",
    "check_backend",
]


def available_backends() -> tuple[str, ...]:
    """Names accepted wherever a simulator backend is selectable."""
    return ("closed", "event")


def check_backend(name: str) -> str:
    """Validate a backend name, returning it; raise ``ValueError`` otherwise."""
    if name not in available_backends():
        known = ", ".join(available_backends())
        raise ValueError(f"unknown backend {name!r} (known: {known})")
    return name
