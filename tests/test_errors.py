import pickle

import pytest

from flatscape import errors

CLASSES = sorted((cls for cls in vars(errors).values()
                  if isinstance(cls, type)
                  and issubclass(cls, errors.FlatscapeError)),
                 key=lambda cls: cls.__name__)


def _example(cls):
    if cls is errors.ParseError:
        return cls("n_b", "must be an integer")
    if cls is errors.ConvergenceError:
        return cls("no convergence", residuals=[1e-3, 2e-4])
    return cls(f"a {cls.__name__}")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_errors_survive_pickle(cls):
    # a forked worker sends its exception back pickled; the parent must
    # raise the same type with the same message and fields
    exc = _example(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.__dict__ == exc.__dict__
    assert getattr(back, "field", None) == getattr(exc, "field", None)
    assert getattr(back, "residuals", None) == getattr(exc, "residuals", None)
