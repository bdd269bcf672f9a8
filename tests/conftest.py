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


@pytest.fixture(autouse=True)
def fresh_session():
    """An empty session bound for each test: it reuses no table made
    before it, and the one it makes is dropped after it."""
    with sieve.Session() as session:
        yield session
