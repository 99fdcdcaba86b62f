"""Initial-state capture and transfer (ROMTransfer + HotSync).

The deterministic state machine model needs β, the initial state.  The
paper collects it as (a) the flash image, via ROMTransfer.prc over the
cradle, and (b) the RAM contents, by setting every database's backup
bit and HotSyncing.  Sessions start directly after a soft reset, so no
processor state needs capturing.

:class:`InitialState` is that bundle on the desktop, with a simple
directory-based file layout so sessions can be archived and replayed
later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from ..palmos.database import DatabaseImage
from ..storage import read_json, write_json
from .records import TraceFormatError


@dataclass
class InitialState:
    """β: everything needed to start an equivalent system.

    ``rtc_base`` records the device's clock setting (Palm-epoch seconds
    at tick 0).  The paper's emulator *approximates* the RTC from host
    time instead of restoring it; our replay restores it by default and
    offers the approximation as the jitter model.

    ``card_name``/``card_image`` carry the session's memory card when
    one is used — the "entire contents of the memory card" option the
    paper describes for the card extension (§2.3.1).
    """

    flash_image: bytes
    databases: List[DatabaseImage] = field(default_factory=list)
    rtc_base: Optional[int] = None
    card_name: Optional[str] = None
    card_image: Optional[bytes] = None

    @classmethod
    def capture(cls, kernel, card=None) -> "InitialState":
        """ROMTransfer + set-backup-bits + HotSync, as in §2.2.

        ``card`` is the :class:`~repro.device.memcard.MemoryCard` the
        session's user will insert; its contents are snapshotted now.
        """
        kernel.set_backup_bits()
        return cls(
            flash_image=kernel.rom_transfer(),
            databases=kernel.hotsync_backup(),
            rtc_base=kernel.device.rtc.base_seconds,
            card_name=card.name if card is not None else None,
            card_image=bytes(card.contents) if card is not None else None,
        )

    def make_card(self):
        """Reconstruct the session's memory card (None if cardless)."""
        if self.card_image is None:
            return None
        from ..device.memcard import MemoryCard

        return MemoryCard(name=self.card_name or "card",
                          contents=bytearray(self.card_image))

    # -- persistence ------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "flash.rom").write_bytes(self.flash_image)
        names = []
        for i, image in enumerate(self.databases):
            filename = f"db_{i:03d}.pdb"
            (directory / filename).write_bytes(image.to_pdb_bytes())
            names.append(filename)
        meta = {"rtc_base": self.rtc_base, "databases": names,
                "card_name": self.card_name}
        if self.card_image is not None:
            (directory / "card.img").write_bytes(self.card_image)
            meta["card_image"] = "card.img"
        write_json(directory / "state.json", meta)

    @classmethod
    def load(cls, directory: str | Path) -> "InitialState":
        """Read a state written by :meth:`save`; a ``state.json`` that
        is not one raises :class:`TraceFormatError`."""
        directory = Path(directory)
        path = directory / "state.json"
        meta = read_json(path, TraceFormatError)
        if (not isinstance(meta.get("databases"), list)
                or not all(isinstance(n, str) for n in meta["databases"])
                or "rtc_base" not in meta
                or not isinstance(meta["rtc_base"], (int, type(None)))
                or not all(isinstance(meta.get(key), (str, type(None)))
                           for key in ("card_name", "card_image"))):
            raise TraceFormatError(f"{path}: not an initial-state manifest")
        for name in meta["databases"] + [meta.get("card_image") or ""]:
            if name and not (directory / name).is_file():
                raise TraceFormatError(f"{path}: names a missing file {name!r}")
        databases = [
            DatabaseImage.from_pdb_bytes((directory / name).read_bytes())
            for name in meta["databases"]
        ]
        card_image = None
        if meta.get("card_image"):
            card_image = (directory / meta["card_image"]).read_bytes()
        return cls(
            flash_image=(directory / "flash.rom").read_bytes(),
            databases=databases,
            rtc_base=meta["rtc_base"],
            card_name=meta.get("card_name"),
            card_image=card_image,
        )
