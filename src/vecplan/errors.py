"""Exception types shared across the package, and the file reader that
maps a file it cannot read onto them."""


class VecplanError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(VecplanError):
    """Invalid geometric input (non-finite values, degenerate shapes)."""


class ShapeError(VecplanError):
    """Array shape mismatch in a numeric operation."""


class ConfigError(VecplanError):
    """Invalid or unparsable configuration."""


class ScenarioFormatError(VecplanError):
    """Scenario file violates the documented schema."""


class CheckpointError(VecplanError):
    """Checkpoint file is unreadable or inconsistent with the model config."""


class TrainingDivergedError(VecplanError):
    """Training loss became non-finite."""


class SimulationError(VecplanError):
    """Closed-loop rollout cannot proceed (e.g. horizon exhausted)."""


def read_text(path, error: type[VecplanError]) -> str:
    """The UTF-8 text of the file at `path`; a FileNotFoundError if there is
    none, and `error` if it cannot be read (a directory, say) or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"{path}: cannot read: {e}") from e
