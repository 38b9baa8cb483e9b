from argparse import ArgumentTypeError

import pytest

from symvertex.cli import _t_range
from symvertex.config import (ENV_CONFIG, CliConfig, ConfigError, load_config,
                              parse_config_text)


class TestRangeParsing:
    """Range values of --window, --mode-range and --charge-range; a config
    file takes no ranges."""

    def test_dotted(self):
        assert _t_range("-3..3") == (-3, 3)

    def test_colon(self):
        assert _t_range("0:4") == (0, 4)

    def test_bracketed(self):
        assert _t_range("[2,5]") == (2, 5)

    def test_rejects_backwards(self):
        with pytest.raises(ArgumentTypeError,
                           match=r"^range '4\.\.1' has lo > hi$"):
            _t_range("4..1")

    def test_rejects_garbage(self):
        with pytest.raises(ArgumentTypeError, match=r"^range 'x\.\.y' has "
                                                    r"non-integer endpoints$"):
            _t_range("x..y")

    def test_window_single_range(self):
        assert _t_range("-2..2") == (-2, 2)

    def test_window_per_variable(self):
        # the per-variable form 'var=lo..hi,...' is not a range
        with pytest.raises(ArgumentTypeError, match="non-integer endpoints"):
            _t_range("z=0..3,w=-1..1")

    def test_rejects_missing_separator(self):
        with pytest.raises(ArgumentTypeError,
                           match=r"^cannot parse range '7' \(use lo\.\.hi\)$"):
            _t_range("7")


class TestDefaults:
    def test_default_values(self):
        cfg = CliConfig()
        assert cfg.degree_budget == 14
        assert cfg.format == "text"

    def test_validate_rejects_negative_budget(self):
        with pytest.raises(ConfigError):
            CliConfig(degree_budget=-1).validate()

    def test_validate_rejects_bad_format(self):
        with pytest.raises(ConfigError):
            CliConfig(format="xml").validate()


class TestFileParsing:
    def test_basic(self):
        cfg = parse_config_text("degree_budget = 9\nformat = json\n")
        assert cfg.degree_budget == 9 and cfg.format == "json"

    def test_hyphenated_keys_and_comments(self):
        cfg = parse_config_text("# comment\ndegree-budget = 9\n\n"
                                "format = json  # trailing\n")
        assert cfg.degree_budget == 9
        assert cfg.format == "json"

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("format = json\nwat = 1\n")
        assert "line 2" in str(err.value) and "wat" in str(err.value)

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("degree_budget = many\n")
        assert "degree_budget" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("jobs 2\n")


class TestLoadConfig:
    def test_no_sources_gives_defaults(self):
        cfg = load_config(None, env={})
        assert cfg == CliConfig()

    def test_explicit_path(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("degree-budget = 20\n")
        assert load_config(str(p), env={}).degree_budget == 20

    def test_explicit_missing_path_errors(self):
        with pytest.raises(ConfigError):
            load_config("/definitely/not/here.cfg", env={})

    def test_env_fallback(self, tmp_path):
        p = tmp_path / "b.cfg"
        p.write_text("degree_budget = 3\n")
        cfg = load_config(None, env={ENV_CONFIG: str(p)})
        assert cfg.degree_budget == 3

    def test_missing_env_target_ignored(self):
        cfg = load_config(None, env={ENV_CONFIG: "/nope.cfg"})
        assert cfg == CliConfig()
