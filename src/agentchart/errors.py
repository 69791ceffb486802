"""Exception hierarchy shared across the package."""


class AgentChartError(Exception):
    """Base class for all package errors."""


class ChartError(AgentChartError):
    """Structural problem found while building or running a statechart."""


class DuplicateId(ChartError):
    pass


class DanglingReference(ChartError):
    pass


class MalformedComposite(ChartError):
    pass


class IllegalJoin(ChartError):
    pass


class LivelockDetected(ChartError):
    """A run to completion (a macrostep or initialize) exceeded its bound."""


class UnknownDevice(AgentChartError):
    pass


class BehaviorNotConfigured(AgentChartError):
    """Agent has no enabled input or output, or a controller that does not mirror its body."""


class NonFiniteInput(AgentChartError):
    pass


class NonFiniteVariable(AgentChartError):
    pass


class UnknownChannel(AgentChartError):
    pass


class InvalidParams(AgentChartError):
    pass


class ConfigError(AgentChartError):
    """Scenario configuration file could not be parsed."""


class UnknownKey(ConfigError):
    pass


class RangeError(InvalidParams):
    """A configuration value is outside its permitted range."""


def require(ok: bool, message: str) -> None:
    """Raise RangeError(message) unless ok.  Write each rule so that NaN fails it."""
    if not ok:
        raise RangeError(message)
