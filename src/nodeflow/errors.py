"""Exception hierarchy.

Unbounded linear programs and infeasible flow programs are *results*,
reported through solution statuses, and never raised from here.  Exceptions are reserved for malformed
inputs and exceeded resource limits.
"""


class NodeflowError(Exception):
    """Base class for all package errors."""


class UnknownNode(NodeflowError):
    """An edge, commodity or query referenced a node that does not exist."""


class MalformedNetwork(NodeflowError):
    """Structural problem with a network definition (self-loop, bad capacity...)."""


class MalformedProgram(NodeflowError):
    """A linear program referenced an undeclared variable, or has a row that
    fails at the origin."""


class ParseError(NodeflowError):
    """Instance file could not be parsed.

    Carries an optional location string ("edges[3].capacity" style) so the
    CLI can point at the offending field.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class CapExceeded(NodeflowError):
    """A walk search passed network.WALK_STEP_CAP, so its result would be
    unsound.  The CLI exits with code 3."""


class InfiniteDemand(NodeflowError):
    """An operation requiring finite demands was given an infinite one."""


class MissingDesignation(NodeflowError):
    """Instance lacks a designated node/set/middlepoint list the command needs."""
