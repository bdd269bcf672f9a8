import pytest

from revprime import sieve
from revprime.digits import Base
from revprime.verify import default_fixtures_path, load_fixtures


@pytest.fixture(scope="session")
def b10():
    return Base(10)


@pytest.fixture(scope="session")
def small_bases():
    return tuple(Base(b) for b in (2, 3, 6, 10))


@pytest.fixture(scope="session")
def fixtures():
    return load_fixtures(default_fixtures_path())


@pytest.fixture
def fresh_session(monkeypatch):
    """An empty sieve.session for one test: it reuses no table or build made
    before it, and the ones it makes are dropped after it."""
    session = sieve.Session()
    monkeypatch.setattr(sieve, "session", session)
    return session
