import vlbb84


def test_exports_are_attributes():
    missing = [name for name in vlbb84.__all__ if not hasattr(vlbb84, name)]
    assert missing == []


def test_exports_are_listed_once():
    assert len(set(vlbb84.__all__)) == len(vlbb84.__all__)
