"""The package's failure taxonomy: one base class, stdlib bases kept."""

import inspect

import pytest

from cornellbound import errors

STDLIB_BASE = {
    errors.DomainError: ValueError,
    errors.SingularPointError: ArithmeticError,
    errors.OrderingError: ValueError,
    errors.BracketError: RuntimeError,
    errors.NonConvergenceError: RuntimeError,
    errors.NoValidRootError: RuntimeError,
    errors.DegenerateDifferenceError: ValueError,
}


def test_every_package_error_is_covered():
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass) if cls is not errors.CornellboundError}
    assert defined == set(STDLIB_BASE)


@pytest.mark.parametrize("cls", list(STDLIB_BASE), ids=lambda cls: cls.__name__)
def test_derives_from_the_package_base_and_keeps_its_stdlib_base(cls):
    with pytest.raises(errors.CornellboundError):
        raise cls("x")
    with pytest.raises(STDLIB_BASE[cls]):
        raise cls("x")
