"""Minimal pure-python `bdist_wheel` distutils command.

Covers what setuptools 65 needs for PEP 517 builds in this offline
container: the `editable_wheel` command calls only ``get_tag()`` and
``write_wheelfile()``; ``run()`` additionally supports plain (non-
editable) wheel builds of pure-python projects like this one.
"""
from __future__ import annotations

import os
import re
import shutil

from distutils import log
from distutils.core import Command


def safer_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "_", name)


def requires_dist(requires_txt: str) -> list[str]:
    """``Requires-Dist`` values of an egg-info ``requires.txt``.

    Lines under ``[extra]``, ``[:marker]`` or ``[extra:marker]`` get the
    matching environment marker.
    """
    out, marker = [], ""
    for line in requires_txt.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("["):
            extra, _, env = line[1:-1].partition(":")
            terms = [f"({env})" if env and extra else env] if env else []
            terms += [f'extra == "{extra}"'] if extra else []
            marker = "; " + " and ".join(terms) if terms else ""
            continue
        out.append(line + marker)
    return out


class bdist_wheel(Command):
    description = "create a wheel distribution (minimal offline shim)"

    user_options = [
        ("bdist-dir=", "b", "temporary directory for creating the distribution"),
        ("dist-dir=", "d", "directory to put final built distributions in"),
        ("keep-temp", "k", "keep the temporary build directory"),
    ]
    boolean_options = ["keep-temp"]

    def initialize_options(self) -> None:
        self.bdist_dir = None
        self.dist_dir = None
        self.keep_temp = False

    def finalize_options(self) -> None:
        if self.bdist_dir is None:
            bdist_base = self.get_finalized_command("bdist").bdist_base
            self.bdist_dir = os.path.join(bdist_base, "wheel")
        self.set_undefined_options("bdist", ("dist_dir", "dist_dir"))

    # -- API consumed by setuptools.command.editable_wheel ----------------
    def get_tag(self) -> tuple[str, str, str]:
        """Pure-python tag; this shim does not build platform wheels."""
        return ("py3", "none", "any")

    @property
    def wheel_dist_name(self) -> str:
        return (
            f"{safer_name(self.distribution.get_name())}-"
            f"{self.distribution.get_version().replace('-', '_')}"
        )

    def write_wheelfile(
        self, wheelfile_base: str, generator: str = "local-wheel-shim"
    ) -> None:
        content = (
            "Wheel-Version: 1.0\n"
            f"Generator: {generator}\n"
            "Root-Is-Purelib: true\n"
            f"Tag: {'-'.join(self.get_tag())}\n"
        )
        with open(os.path.join(wheelfile_base, "WHEEL"), "w", encoding="utf-8") as f:
            f.write(content)

    def egg2dist(self, egginfo_path: str, distinfo_path: str) -> None:
        """Convert an ``.egg-info`` directory into a ``.dist-info``.

        Called by setuptools' ``dist_info`` command. METADATA is the
        egg's PKG-INFO plus a ``Requires-Dist`` header per line of its
        ``requires.txt``; entry points and other standard egg-info files
        are carried over; the egg-info dir is removed (as the real
        wheel package does).
        """
        if os.path.isdir(distinfo_path):
            shutil.rmtree(distinfo_path)
        os.makedirs(distinfo_path)
        with open(os.path.join(egginfo_path, "PKG-INFO"), encoding="utf-8") as f:
            headers, sep, body = f.read().partition("\n\n")
        lines = [headers.rstrip("\n")]
        requires = os.path.join(egginfo_path, "requires.txt")
        if os.path.exists(requires):
            with open(requires, encoding="utf-8") as f:
                lines += [f"Requires-Dist: {r}" for r in requires_dist(f.read())]
        with open(os.path.join(distinfo_path, "METADATA"), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n" + ("\n" + body if sep else ""))
        for fn in ("entry_points.txt", "top_level.txt"):
            src = os.path.join(egginfo_path, fn)
            if os.path.exists(src):
                shutil.copyfile(src, os.path.join(distinfo_path, fn))
        shutil.rmtree(egginfo_path, ignore_errors=True)

    # -- full (non-editable) wheel build ----------------------------------
    def run(self) -> None:
        from wheel.wheelfile import WheelFile

        self.run_command("build")
        build_lib = self.get_finalized_command("build").build_lib

        dist_info = self.reinitialize_command("dist_info")
        dist_info.output_dir = self.bdist_dir
        dist_info.ensure_finalized()
        dist_info.run()
        self.write_wheelfile(dist_info.dist_info_dir)

        os.makedirs(self.dist_dir, exist_ok=True)
        archive = os.path.join(
            self.dist_dir,
            f"{self.wheel_dist_name}-{'-'.join(self.get_tag())}.whl",
        )
        if os.path.exists(archive):
            os.unlink(archive)
        with WheelFile(archive, "w") as wf:
            if os.path.isdir(build_lib):
                wf.write_files(build_lib)
            wf.write_files(self.bdist_dir)
        log.info("created wheel %s", archive)
        if not self.keep_temp:
            shutil.rmtree(self.bdist_dir, ignore_errors=True)
