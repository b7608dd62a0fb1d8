import signal
from contextlib import contextmanager


class TimeLimitExceeded(BaseException):
    """Raised when a time_limit expires.  It derives from BaseException
    because TimeoutError is an OSError, which cli.main turns into exit 2, so
    a hung call would read as a refusal instead of a failure."""


@contextmanager
def time_limit(seconds: float):
    """Fail the block with TimeLimitExceeded once it has run for seconds."""
    def expire(*_):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
