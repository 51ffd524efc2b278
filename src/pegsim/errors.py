"""Exception types raised by the simulator.

Operations that the contract "ignores" (bad reports, range challenges short by
less than d) do not raise; they return an outcome value instead.
Everything here signals a caller error or a rejected state transition.
"""


class SimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimError):
    """Scenario configuration failed validation; message carries the field path."""


# merkle

class EmptyTree(SimError):
    pass


class IndexOutOfRange(SimError):
    pass


# chainsim

class EncodingError(SimError):
    """A value lies outside the range of its canonical byte field."""


class UnknownParent(SimError):
    pass


class RangeUnavailable(SimError):
    pass


# scheduler

class PastEvent(SimError):
    pass


# bridge contract

class BadParams(SimError):
    pass


class HeadInUse(SimError):
    pass


class BadCollateral(SimError):
    pass


class AlreadyRegistered(SimError):
    pass


class InsufficientDeposit(SimError):
    pass


class ActiveOrPending(SimError):
    pass


class NotListening(SimError):
    pass


class NotARelayer(SimError):
    pass


class RangeTooLong(SimError):
    pass


class RangeNotAhead(SimError):
    pass


class WindowNotElapsed(SimError):
    pass


class NotVerifying(SimError):
    pass


class WindowElapsed(SimError):
    pass


class UnknownThread(SimError):
    pass


class TooLate(SimError):
    pass


class InsufficientBalance(SimError):
    pass


class InsufficientQueue(SimError):
    pass


class NotElapsed(SimError):
    pass


class AlreadySettled(SimError):
    pass


class TooDeep(SimError):
    pass


class BadIndex(SimError):
    pass


class NotStuck(SimError):
    pass


class UnknownHead(SimError):
    pass


class ProposalPending(SimError):
    pass


class NoProposal(SimError):
    pass


# agents / rate path

class BeforeStart(SimError):
    pass


# harness

class ParseError(SimError):
    pass
