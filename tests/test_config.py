import pytest

from chordlab.config import Config, ConfigError


GOOD = """\
# run parameters
hbar = 0.05
state = coherent   # trailing comment
eta = 0.0 1.0
channel = 0 1 1 0
channel = 1 0 0 1
window.q = 0.0
window.q = 0.3
grid.points = 256
"""


def test_parse_and_accessors():
    cfg = Config.from_text(GOOD)
    assert cfg.float("hbar") == 0.05
    assert cfg.str("state") == "coherent"
    assert cfg.floats("eta", 2) == (0.0, 1.0)
    assert cfg.int("grid.points") == 256
    assert cfg.vector_list("channel", 4) == [(0.0, 1.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0)]
    assert cfg.float_list("window.q") == [0.0, 0.3]


def test_defaults_and_required():
    cfg = Config.from_text("hbar = 0.05\n")
    assert cfg.float("dt", 1e-3) == 1e-3
    assert cfg.int("seed", None) is None
    assert cfg.str("state", "coherent") == "coherent"
    assert cfg.floats("eta", 2, (0.0, 0.0)) == (0.0, 0.0)
    with pytest.raises(ConfigError):
        cfg.float("t")
    assert cfg.float_list("window.q") == []


def test_choices():
    cfg = Config.from_text("state = coherent\n")
    assert cfg.str("state", choices={"coherent", "cat"}) == "coherent"
    with pytest.raises(ConfigError) as err:
        cfg.str("state", choices={"circle", "cat"})
    assert err.value.line == 1
    # defaults are validated against choices too
    cfg2 = Config.from_text("hbar = 0.05\n")
    with pytest.raises(ConfigError):
        cfg2.str("state", "bogus", choices={"coherent"})


def test_line_numbers_in_errors():
    with pytest.raises(ConfigError) as err:
        Config.from_text("hbar = 0.05\n\nbroken line\n")
    assert err.value.line == 3
    assert "key = value" in str(err.value)

    with pytest.raises(ConfigError) as err:
        Config.from_text("# c\nBadKey = 1\n")
    assert err.value.line == 2

    with pytest.raises(ConfigError) as err:
        Config.from_text("hbar =\n")
    assert err.value.line == 1
    assert "empty value" in err.value.message


def test_duplicate_non_repeatable():
    with pytest.raises(ConfigError) as err:
        Config.from_text("hbar = 0.05\nt = 1\nhbar = 0.1\n")
    assert err.value.line == 3
    assert "more than once" in err.value.message


def test_type_errors_carry_lines():
    cfg = Config.from_text("hbar = soft\nn = 2.5\neta = 1 2 3\nchannel = a b c d\n")
    with pytest.raises(ConfigError) as err:
        cfg.float("hbar")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        cfg.int("n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        cfg.floats("eta", 2)
    assert err.value.line == 3 and "needs 2 numbers" in err.value.message
    with pytest.raises(ConfigError) as err:
        cfg.vector_list("channel", 4)
    assert err.value.line == 4


def test_non_finite_numbers_carry_lines():
    cfg = Config.from_text("hbar = nan\nt = inf\neta = 0 -inf\nchannel = nan 1 0 0\n"
                           "window.q = 0.1\nwindow.q = NaN\n")
    calls = ((lambda: cfg.float("hbar"), 1), (lambda: cfg.float("t"), 2),
             (lambda: cfg.floats("eta", 2), 3), (lambda: cfg.vector_list("channel", 4), 4),
             (lambda: cfg.float_list("window.q"), 6))
    for call, line in calls:
        with pytest.raises(ConfigError, match="finite") as err:
            call()
        assert err.value.line == line


def test_check_all_read():
    cfg = Config.from_text(GOOD + "who = 1\n")
    cfg.str("state")
    cfg.float("hbar")
    cfg.int("grid.points")
    cfg.floats("eta", 2)
    cfg.float_list("window.q")
    with pytest.raises(ConfigError) as err:  # every entry but these two is read
        cfg.check_all_read()
    assert "unknown key 'channel'" in err.value.message and err.value.line == 5
    cfg.vector_list("channel", 4)
    with pytest.raises(ConfigError) as err:
        cfg.check_all_read()
    assert "unknown key 'who'" in err.value.message and err.value.line == 10
    cfg.float("who", 0.0)
    cfg.check_all_read()


def test_echo_round_trip():
    cfg = Config.from_text(GOOD)
    echoed = cfg.echo()
    assert echoed["hbar"] == "0.05"
    assert echoed["channel"] == ["0 1 1 0", "1 0 0 1"]
    assert echoed["window.q"] == ["0.0", "0.3"]
    assert echoed["grid.points"] == "256"


def test_load_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    cfg = Config.load(path)
    assert cfg.float("hbar") == 0.05
