#!/usr/bin/env python
"""A CORBA bank service: exceptions, unions, inout parameters over IIOP.

Shows the parts of the CORBA mapping beyond plain calls: user exceptions
raised across the wire, a discriminated union for mixed query results,
``inout``/``out`` parameters, and interface inheritance (an audited
account extends the base account).
"""

from repro import api
from repro.runtime import LoopbackTransport

BANK_IDL = """
module Bank {
    exception InsufficientFunds {
        long long balance;
        long long requested;
    };
    exception NoSuchAccount { string id; };

    enum QueryKind { BALANCE, OWNER, HISTORY_SIZE };

    union QueryResult switch (QueryKind) {
        case BALANCE: long long amount;
        case OWNER: string name;
        case HISTORY_SIZE: unsigned long entries;
    };

    interface Account {
        long long balance(in string id) raises (NoSuchAccount);
        void deposit(in string id, in long long amount)
            raises (NoSuchAccount);
        long long withdraw(in string id, in long long amount)
            raises (NoSuchAccount, InsufficientFunds);
        QueryResult query(in string id, in QueryKind kind)
            raises (NoSuchAccount);
        void transfer(in string src, in string dst,
                      inout long long amount, out long long src_balance)
            raises (NoSuchAccount, InsufficientFunds);
    };

    interface AuditedAccount : Account {
        unsigned long audit_count();
    };
};
"""

BALANCE, OWNER, HISTORY_SIZE = 0, 1, 2


def main():
    result = api.compile(
        BANK_IDL, "corba", interface="Bank::AuditedAccount", backend="iiop")
    module = result.module
    print("operations:", [s.operation_name for s in result.presc.stubs])

    class Bank(module.Bank_AuditedAccountServant):
        def __init__(self):
            self.accounts = {"alice": 1000, "bob": 50}
            self.owners = {"alice": "Alice A.", "bob": "Bob B."}
            self.history = {"alice": 3, "bob": 1}
            self.audits = 0

        def _check(self, account_id):
            if account_id not in self.accounts:
                raise module.Bank_NoSuchAccount(account_id)

        def balance(self, account_id):
            self._check(account_id)
            return self.accounts[account_id]

        def deposit(self, account_id, amount):
            self._check(account_id)
            self.accounts[account_id] += amount
            self.history[account_id] += 1

        def withdraw(self, account_id, amount):
            self._check(account_id)
            balance = self.accounts[account_id]
            if amount > balance:
                raise module.Bank_InsufficientFunds(balance, amount)
            self.accounts[account_id] = balance - amount
            self.history[account_id] += 1
            return self.accounts[account_id]

        def query(self, account_id, kind):
            self._check(account_id)
            if kind == BALANCE:
                return (BALANCE, self.accounts[account_id])
            if kind == OWNER:
                return (OWNER, self.owners[account_id])
            return (HISTORY_SIZE, self.history[account_id])

        def transfer(self, src, dst, amount):
            # inout amount (capped to available), out src_balance.
            self._check(src)
            self._check(dst)
            moved = min(amount, self.accounts[src])
            self.accounts[src] -= moved
            self.accounts[dst] += moved
            return moved, self.accounts[src]

        def audit_count(self):
            self.audits += 1
            return self.audits

    servant = Bank()
    client = module.Bank_AuditedAccountClient(
        LoopbackTransport(module.dispatch, servant)
    )

    print("alice balance:", client.balance("alice"))
    client.deposit("alice", 250)
    print("after deposit:", client.balance("alice"))

    remaining = client.withdraw("alice", 200)
    print("after withdraw(200):", remaining)
    assert remaining == 1050

    try:
        client.withdraw("bob", 10_000)
    except module.Bank_InsufficientFunds as error:
        print("withdraw refused: balance=%d requested=%d"
              % (error.balance, error.requested))

    try:
        client.balance("mallory")
    except module.Bank_NoSuchAccount as error:
        print("no such account:", error.id)

    kind, value = client.query("alice", OWNER)
    print("query(OWNER):", value)
    assert (kind, value) == (OWNER, "Alice A.")

    kind, value = client.query("bob", HISTORY_SIZE)
    print("query(HISTORY_SIZE):", value)

    moved, src_balance = client.transfer("alice", "bob", 5000)
    print("transfer wanted 5000, moved %d; alice now %d"
          % (moved, src_balance))
    assert src_balance == 0

    # Inherited operation from the derived interface.
    assert client.audit_count() == 1
    print("audit count works via inheritance")
    print("\nbank over IIOP OK")


if __name__ == "__main__":
    main()
