"""The error hierarchy: one subclass per distinction a caller makes."""

import provlab.errors as errors


def test_errors_declares_five_classes():
    classes = {
        name: value
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert set(classes) == {
        "ProvenanceError", "MalformedContainer", "EncodeError", "DecodeError", "ServiceUnreachable",
    }
    for cls in classes.values():
        assert issubclass(cls, errors.ProvenanceError)
