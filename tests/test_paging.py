"""Unit tests for page tables and permissions."""

import pytest

from repro.errors import ConfigError
from repro.memory.paging import (PAGE_SIZE, PagePermissions, PageTable,
                                 PrivilegeLevel)


class TestPagePermissions:
    def test_default_allows_user_read(self):
        perms = PagePermissions()
        assert perms.allows(write=False, execute=False,
                            privilege=PrivilegeLevel.USER)

    def test_supervisor_only_blocks_user(self):
        perms = PagePermissions(supervisor_only=True)
        assert not perms.allows(write=False, execute=False,
                                privilege=PrivilegeLevel.USER)

    def test_supervisor_only_allows_supervisor(self):
        perms = PagePermissions(supervisor_only=True)
        assert perms.allows(write=False, execute=False,
                            privilege=PrivilegeLevel.SUPERVISOR)

    def test_readonly_blocks_write(self):
        perms = PagePermissions(writable=False)
        assert not perms.allows(write=True, execute=False,
                                privilege=PrivilegeLevel.USER)
        assert perms.allows(write=False, execute=False,
                            privilege=PrivilegeLevel.USER)

    def test_nx_blocks_execute(self):
        perms = PagePermissions(executable=False)
        assert not perms.allows(write=False, execute=True,
                                privilege=PrivilegeLevel.USER)


class TestPageTable:
    def test_unmapped_lookup_is_none(self):
        assert PageTable().lookup(0x1234) is None

    def test_identity_map(self):
        pt = PageTable()
        pt.map_page(5)
        translation = pt.lookup(5 * PAGE_SIZE + 100)
        assert translation is not None
        assert translation.physical(5 * PAGE_SIZE + 100) == \
            5 * PAGE_SIZE + 100

    def test_non_identity_map(self):
        pt = PageTable()
        pt.map_page(vpn=1, ppn=9)
        translation = pt.lookup(PAGE_SIZE + 8)
        assert translation.physical(PAGE_SIZE + 8) == 9 * PAGE_SIZE + 8

    def test_map_range_covers_partial_pages(self):
        pt = PageTable()
        pt.map_range(100, PAGE_SIZE)  # straddles two pages
        assert pt.lookup(100) is not None
        assert pt.lookup(PAGE_SIZE + 50) is not None
        assert len(pt.snapshot()) == 2

    def test_map_range_rejects_empty(self):
        with pytest.raises(ConfigError):
            PageTable().map_range(0, 0)

    def test_supervisor_translation_returned_to_walker(self):
        """Meltdown's P1: the walk succeeds even for supervisor pages —
        the permission check is separate."""
        pt = PageTable()
        pt.map_page(3, permissions=PagePermissions(supervisor_only=True))
        translation = pt.lookup(3 * PAGE_SIZE)
        assert translation is not None
        assert not translation.permissions.allows(
            write=False, execute=False, privilege=PrivilegeLevel.USER)

    def test_negative_vpn_rejected(self):
        with pytest.raises(ConfigError):
            PageTable().map_page(-1)

    def test_walk_levels_validated(self):
        with pytest.raises(ConfigError):
            PageTable(walk_levels=0)
