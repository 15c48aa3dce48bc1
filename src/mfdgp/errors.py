"""Exception hierarchy shared across the package: one class per handling.

* :class:`MfdgpError` stops a campaign's loop (``campaign.continue_run``)
  or skips its recommendation (``cli._campaign``), and ``cli.main`` exits 3
  on one that no other clause handles.
* :class:`DomainError` is reworded where a value is refused on the way in:
  ``campaign._evaluate`` names a refused append, ``logio.replay`` a corrupt
  line and :class:`~mfdgp.config.CampaignConfig` a config error.
* :class:`ConditioningError` makes ``gp._negative_lml`` score the vertex inf.
* :class:`ConfigError` exits 2.
* :class:`CorruptLogError` exits 4.
"""


class MfdgpError(Exception):
    """Base class for all package-specific errors; a diverged transport solve is one."""


class DomainError(MfdgpError, ValueError):
    """A value lies outside its allowed domain.

    Bounds, sign, range, an array's shape, a dataset with too few
    observations, or an RTD curve the tanks-in-series fit cannot take.
    """


class ConditioningError(MfdgpError, RuntimeError):
    """A factorization or a predictive variance that cannot be repaired.

    Raised when a Cholesky factorization fails even after jitter
    escalation, and when a GP predictive variance falls below the clamp
    threshold, -1e-10. A failed factorization's message lists the
    jitter levels it attempted.
    """


class ConfigError(MfdgpError, ValueError):
    """A campaign configuration file is invalid."""


class CorruptLogError(MfdgpError, ValueError):
    """A results log line cannot be parsed.

    ``line_number`` is 1-based and names the offending line.
    """

    def __init__(self, message, line_number):
        super().__init__(f"{message} (line {line_number})")
        self.line_number = line_number
