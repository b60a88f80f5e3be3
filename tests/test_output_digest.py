import json

import output_digest


def test_l2_cohom_entry(tmp_path, capsys):
    first = output_digest.digest("l2-cohom")
    assert set(first) == {"l2-cohom/alpha", "l2-cohom/residual_plateau"}
    # the same tree gives the same digests, and --against says so
    path = tmp_path / "before.json"
    path.write_text(json.dumps(first))
    assert output_digest.main(["--only", "l2-cohom", "--against",
                               str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == first
    # a moved entry is listed, and fails the comparison
    path.write_text(json.dumps(dict(first, **{"l2-cohom/alpha": "0" * 64})))
    assert output_digest.main(["--only", "l2-cohom", "--against",
                               str(path)]) == 1
    assert "differs: l2-cohom/alpha\n" in capsys.readouterr().err

