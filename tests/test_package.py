import evidem


def test_every_exported_name_resolves():
    assert [name for name in evidem.__all__ if not hasattr(evidem, name)] == []
