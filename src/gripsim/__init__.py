"""Quasi-static planar simulator for a single-motor three-finger gripper
with retractable phalanges and a reconfigurable base."""

__version__ = "0.1.0"

from .assembly import (  # noqa: F401
    Command,
    GraspReport,
    GripperAssembly,
    Verb,
    aperture_range,
    build_gripper,
    classify_mode,
    contact_detect,
    run_commands,
    sweep_ranges,
)
from .config import GripperConfig, build_config, default_config  # noqa: F401
from .finger import (  # noqa: F401
    Behavior,
    FingerState,
    Phalanx,
    PhalanxContact,
    SpringBank,
    apply_contact,
    contact_lengths,
    distal_retract,
    parallel_step,
    rest_pose,
    spring_forces,
)
from .linkage import (  # noqa: F401
    LinkageGeometry,
    QuadraticRoots,
    alpha_from,
    select_root,
    solve_middle_retraction,
    solve_proximal_retraction,
)
from .scene import SceneObject  # noqa: F401
from .scenario import Scenario, parse_scenario, serialize_scenario  # noqa: F401
