import frdecomp


def test_public_names_resolve():
    missing = [name for name in frdecomp.__all__
               if getattr(frdecomp, name, None) is None]
    assert missing == []
