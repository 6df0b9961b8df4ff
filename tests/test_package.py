import abreu_bvp


def test_every_exported_name_resolves():
    missing = [name for name in abreu_bvp.__all__
               if not hasattr(abreu_bvp, name)]
    assert not missing
    assert len(set(abreu_bvp.__all__)) == len(abreu_bvp.__all__)
