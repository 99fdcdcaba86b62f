"""Tests for the framebuffer renderer."""

import pytest

from repro import replay_session, standard_apps
from repro.analysis.screen import screen_ascii, screen_histogram, screenshot_ppm
from repro.device import Button
from repro.workloads import UserScript, collect_session

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}


@pytest.fixture(scope="module")
def session():
    script = (UserScript().at(80)
              .press(Button.DATEBOOK).wait(80)   # puzzle paints tiles
              .tap(50, 10).wait(40).tap(90, 50).wait(40))
    return collect_session(standard_apps(), script,
                           ram_size=EMU_KW["ram_size"])


class TestScreenRendering:
    def test_ascii_renders_painted_screen(self, session):
        emulator, _, _ = replay_session(session.initial_state, session.log,
                                        apps=standard_apps(), profile=False,
                                        emulator_kwargs=EMU_KW)
        art = screen_ascii(emulator.kernel)
        lines = art.splitlines()
        assert len(lines) > 10
        # Painted tiles show up as a mix of characters.
        assert len(set(art) - {"\n"}) > 2

    def test_ppm_screenshot_well_formed(self, session, tmp_path):
        emulator, _, _ = replay_session(session.initial_state, session.log,
                                        apps=standard_apps(), profile=False,
                                        emulator_kwargs=EMU_KW)
        path = tmp_path / "screen.ppm"
        screenshot_ppm(emulator.kernel, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n160 160\n255\n")
        assert len(blob) == len(b"P6\n160 160\n255\n") + 160 * 160 * 3

    def test_histogram_counts_pixels(self, session):
        emulator, _, _ = replay_session(session.initial_state, session.log,
                                        apps=standard_apps(), profile=False,
                                        emulator_kwargs=EMU_KW)
        histogram = screen_histogram(emulator.kernel)
        assert sum(histogram.values()) == 160 * 160
        assert len(histogram) > 2  # several tile colours on screen
