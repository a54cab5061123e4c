"""trackbench: a trajectory-tracking workbench for vehicle lateral and
longitudinal control.

Plant models (kinematic and dynamic bicycle), track geometry and error
measurement, classical and predictive controllers, a small neural-network
stack with imitation / policy-gradient / evolutionary training, and a
closed-loop simulation harness with benchmarking CLI.
"""

from .kernels import wrap_angle
from .models import (
    ControlInput,
    StateDerivative,
    VehicleParams,
    VehicleState,
)
from .track import Track, circle_track, racetrack, straight_track

__version__ = "0.1.0"

__all__ = [
    "wrap_angle",
    "ControlInput",
    "StateDerivative",
    "VehicleParams",
    "VehicleState",
    "Track",
    "circle_track",
    "racetrack",
    "straight_track",
    "__version__",
]
