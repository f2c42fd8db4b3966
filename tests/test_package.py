import portclone


def test_every_public_name_resolves():
    missing = [name for name in portclone.__all__ if not hasattr(portclone, name)]
    assert missing == []
    assert len(set(portclone.__all__)) == len(portclone.__all__)
