"""Exception types shared across the simulator."""

from __future__ import annotations


class GripsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(GripsimError):
    """A configuration value violates an invariant; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class InfeasibleConfigurationError(GripsimError):
    """The linkage cannot close for the requested angles (negative discriminant)."""


class NonPhysicalRootError(GripsimError):
    """Both retraction roots are non-positive; no physical linkage length exists."""


class SurfaceTooHighError(GripsimError):
    """Keeping the fingertip on the surface would exceed the distal travel."""


class RackTravelError(GripsimError):
    """Rack position outside the configured travel."""


class ClassificationError(GripsimError):
    """Terminal gripper state is inconsistent with every grasp mode."""


class ScenarioError(GripsimError):
    """Scenario text failed to parse; carries line-numbered diagnostics."""

    def __init__(self, diagnostics: list[tuple[int, int, str]]):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(f"line {ln}, col {col}: {msg}" for ln, col, msg in self.diagnostics)
        super().__init__(lines or "invalid scenario")
