"""The error-hierarchy additions that came with the fault-tolerance layer."""

import repro.errors as errors


def test_paged_memory_error_in_hierarchy():
    assert issubclass(errors.PagedMemoryError, errors.ReproError)


def test_ft_errors_in_hierarchy():
    assert issubclass(errors.FailureError, errors.ReproError)
    assert issubclass(errors.CheckpointError, errors.ReproError)
    assert not issubclass(errors.FailureError, errors.CheckpointError)
