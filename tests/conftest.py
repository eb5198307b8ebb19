import contextlib
import signal

import pytest

from hypermat import Hyperfield, hmatroid_from_circuits, hvector, uniform_matroid
from hypermat.instances import graded_rescaled, u23, u24, u24_orientation_signs

GROUND3 = ("1", "2", "3")
GROUND4 = ("1", "2", "3", "4")


@pytest.fixture
def deadline():
    """``with deadline(s):`` raises TimeoutError in the block after s seconds,
    so a check that runs away fails instead of stalling the suite."""

    @contextlib.contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within


@pytest.fixture(scope="session")
def sign():
    return Hyperfield.sign()


@pytest.fixture(scope="session")
def tropical1():
    return Hyperfield.tropical(1)


@pytest.fixture(scope="session")
def u23_sign(sign):
    one = sign.one()
    return hmatroid_from_circuits(
        sign, GROUND3, [hvector(sign, GROUND3, {"1": one, "2": one, "3": one})]
    )


@pytest.fixture(scope="session")
def u13_sign(sign):
    one, m = sign.one(), sign.neg(sign.one())
    vecs = [
        hvector(sign, GROUND3, {"1": one, "2": m}),
        hvector(sign, GROUND3, {"1": one, "3": m}),
        hvector(sign, GROUND3, {"2": one, "3": m}),
    ]
    return hmatroid_from_circuits(sign, GROUND3, vecs)


@pytest.fixture(scope="session")
def u24_sign(sign):
    return graded_rescaled(sign, u24(), {e: 0 for e in GROUND4}, u24_orientation_signs())


@pytest.fixture(scope="session")
def trop_u23(tropical1):
    return graded_rescaled(tropical1, u23(), {"1": 2, "2": 2, "3": 1})


@pytest.fixture(scope="session")
def stringent_sign_u23():
    SS = Hyperfield.stringent("sign", 1)
    signs = {frozenset({"1", "2", "3"}): {"1": 1, "2": 1, "3": 1}}
    return graded_rescaled(SS, u23(), {"1": 2, "2": 2, "3": 1}, signs)
