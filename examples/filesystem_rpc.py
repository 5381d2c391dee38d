#!/usr/bin/env python
"""A remote directory service over real TCP — the paper's motivating
workload as an application.

The paper's third benchmark method ships arrays of directory entries
(variable-length name + fixed stat structure).  This example builds the
actual service: an ONC RPC program whose server walks an in-memory file
tree and whose client lists and stats paths across a real (localhost)
TCP connection with RFC 1831 record framing — the same protocol family
rpcgen serves, generated here by Flick's ONC/XDR back end.
"""

import threading

from repro import api
from repro.errors import FlickUserException
from repro.runtime import StubServer, TcpClientTransport

FS_IDL = """
const MAXNAME = 255;

struct stat_info {
    int mode;
    int uid;
    int gid;
    unsigned hyper size;
    unsigned int mtime;
};

struct dirent {
    string name<MAXNAME>;
    stat_info st;
    dirent *next;
};

union lookup_result switch (int status) {
    case 0: dirent *entries;
    case 1: void;          /* not found */
    default: void;
};

program FILESERVER {
    version FSV1 {
        lookup_result list_dir(string) = 1;
        int create_file(string, unsigned hyper) = 2;
        unsigned hyper total_bytes(void) = 3;
    } = 1;
} = 0x20000100;
"""


class InMemoryFs:
    """A toy file tree: path -> (is_dir, size)."""

    def __init__(self):
        self.tree = {
            "/": ["etc", "home", "readme.txt"],
            "/etc": ["motd"],
            "/home": ["alice", "bob"],
            "/home/alice": ["notes.txt"],
            "/home/bob": [],
        }
        self.sizes = {
            "/readme.txt": 612,
            "/etc/motd": 77,
            "/home/alice/notes.txt": 2048,
        }

    def list(self, path):
        return self.tree.get(path)

    def stat(self, path):
        if path in self.tree:
            return (0o040755, 0, 0, 4096, 1_000_000_000)
        if path in self.sizes:
            return (0o100644, 1000, 1000, self.sizes[path], 1_000_000_001)
        return None


def make_servant(module, fs):
    class FileServer(module.FILESERVER_FSV1Servant):
        def list_dir(self, path):
            names = fs.list(path)
            if names is None:
                return (1, None)
            head = None
            for name in reversed(names):
                full = path.rstrip("/") + "/" + name
                mode, uid, gid, size, mtime = fs.stat(full)
                stat = module.stat_info(mode, uid, gid, size, mtime)
                head = module.dirent(name, stat, head)
            return (0, head)

        def create_file(self, path, size):
            fs.sizes[path] = size
            directory, _slash, name = path.rpartition("/")
            fs.tree.setdefault(directory or "/", []).append(name)
            return 0

        def total_bytes(self):
            return sum(fs.sizes.values())

    return FileServer()


def entries_to_list(head):
    out = []
    while head is not None:
        out.append((head.name, head.st.size))
        head = head.next
    return out


def main():
    result = api.compile(FS_IDL, "oncrpc")
    module = result.module
    print("compiled %s -> %s stubs"
          % (result.interface.name, result.stubs.backend_name))

    fs = InMemoryFs()
    server = StubServer(module, make_servant(module, fs)).tcp_server()
    with server:
        host, port = server.address
        print("file server listening on %s:%d" % (host, port))
        transport = TcpClientTransport(host, port)
        try:
            client = module.FILESERVER_FSV1Client(transport)

            status, head = client.list_dir("/home")
            assert status == 0
            print("/home:", entries_to_list(head))

            status, _head = client.list_dir("/nope")
            assert status == 1
            print("/nope: not found (status 1)")

            client.create_file("/home/bob/report.pdf", 123456)
            status, head = client.list_dir("/home/bob")
            listing = entries_to_list(head)
            print("/home/bob after create:", listing)
            assert ("report.pdf", 123456) in listing

            total = client.total_bytes()
            print("total bytes on server:", total)
            assert total == 612 + 77 + 2048 + 123456
        finally:
            transport.close()
    print("\nfilesystem RPC over TCP OK")


if __name__ == "__main__":
    main()
