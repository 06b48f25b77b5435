import fsmkit


def test_every_public_name_resolves():
    assert [name for name in fsmkit.__all__ if not hasattr(fsmkit, name)] == []
    assert len(set(fsmkit.__all__)) == len(fsmkit.__all__)
