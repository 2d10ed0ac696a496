"""An e-finance scenario: outsourced invoice processing.

Run:  python examples/efinance_invoices.py

The paper was developed with businesses offering cloud applications "in
e-finance, and e-health" (the industrial partner processes financial
documents).  This example models the e-finance side: an invoice archive
outsourced to the cloud where the operator must still

* look up invoices by IBAN or customer (equality on SSE/DET),
* run compliance screens combining status and risk flags (boolean),
* slice by payment date (range over OPE), and
* compute portfolio totals (homomorphic sums over amounts)

without the cloud ever seeing an account number or an amount.
"""

from repro import (
    CloudZone,
    DataBlinder,
    Eq,
    FieldAnnotation,
    InProcTransport,
    Range,
    Schema,
)


def invoice_schema() -> Schema:
    return Schema.define(
        "invoice",
        id="string",
        number="string",  # public invoice number
        customer=("string", FieldAnnotation.parse("C2", "I,EQ")),
        iban=("string", FieldAnnotation.parse("C2", "I,EQ")),
        status=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        risk_flag=("string", FieldAnnotation.parse("C3", "I,EQ,BL")),
        due_date=("int", FieldAnnotation.parse("C5", "I,EQ,BL,RG")),
        amount=("float", FieldAnnotation.parse("C4", "I,EQ", "sum,avg")),
    )


INVOICES = [
    ("INV-001", "Acme NV", "BE71096123456769", "open", "none",
     20260710, 1250.00),
    ("INV-002", "Acme NV", "BE71096123456769", "paid", "none",
     20260601, 870.50),
    ("INV-003", "Globex BV", "NL91ABNA0417164300", "open", "review",
     20260715, 15400.00),
    ("INV-004", "Initech GmbH", "DE89370400440532013000", "overdue",
     "review", 20260520, 990.00),
    ("INV-005", "Globex BV", "NL91ABNA0417164300", "open", "none",
     20260801, 310.25),
    ("INV-006", "Acme NV", "BE71096123456769", "overdue", "escalated",
     20260510, 4400.00),
]


def main() -> None:
    cloud = CloudZone()
    blinder = DataBlinder("efinance", InProcTransport(cloud.host))
    blinder.register_schema(invoice_schema())
    print("Policy for the invoice schema:")
    print(blinder.policy_report("invoice"))
    print()

    invoices = blinder.entities("invoice")
    invoices.insert_many([
        {"id": f"i{n}", "number": number, "customer": customer,
         "iban": iban, "status": status, "risk_flag": risk,
         "due_date": due, "amount": amount}
        for n, (number, customer, iban, status, risk, due, amount)
        in enumerate(INVOICES)
    ])
    print(f"Archived {len(INVOICES)} invoices in the cloud "
          f"(bodies AEAD-encrypted, fields indexed per policy).\n")

    # Account lookup: equality over the SSE-protected IBAN.
    iban_hits = invoices.find(Eq("iban", "BE71096123456769"))
    print(f"Invoices on IBAN BE71...769: "
          f"{sorted(d['number'] for d in iban_hits)}")

    # Compliance screen: boolean search across status and risk.
    screen = invoices.find(
        (Eq("status", "open") | Eq("status", "overdue"))
        & (Eq("risk_flag", "review") | Eq("risk_flag", "escalated"))
    )
    print(f"Open/overdue invoices under review or escalation: "
          f"{sorted(d['number'] for d in screen)}")

    # Cash-flow slice: range over the OPE-protected due date.
    july = invoices.find(Range("due_date", 20260701, 20260731))
    print(f"Due in July 2026: {sorted(d['number'] for d in july)}")

    # Portfolio totals: Paillier sums the cloud cannot read.
    exposure = invoices.sum(
        "amount",
        where=Eq("status", "open") | Eq("status", "overdue"),
    )
    acme_avg = invoices.average("amount", where=Eq("customer", "Acme NV"))
    print(f"\nOutstanding exposure (homomorphic sum): "
          f"EUR {exposure:,.2f}")
    print(f"Average Acme NV invoice (homomorphic avg): "
          f"EUR {acme_avg:,.2f}")

    print("\nPer-tactic runtime cost of this session:")
    print(blinder.metrics_report())

    # The same numbers, and every other layer's, as one JSON-able
    # snapshot (``metrics_text()`` is its Prometheus exposition).
    snapshot = blinder.metrics_snapshot()
    print("\nOne metrics snapshot, sections:",
          ", ".join(sorted(snapshot)))
    heaviest = max(snapshot["net"]["wire"], key=lambda row: row["bytes_sent"])
    print(f"  heaviest wire cell: {heaviest['service']}.{heaviest['method']}"
          f" — {heaviest['slots']} slots in {heaviest['frames']} frames,"
          f" {heaviest['bytes_sent']:,} B sent")
    plan = snapshot["planner"]["invoice"]
    print(f"  planner: {plan['executions']} executions,"
          f" {plan['cache_hits']} plan-cache hits;"
          f" token caches: {snapshot['tokens']['hits']} hits")
    print("  exposition:",
          len(blinder.metrics_text().splitlines()), "lines")


if __name__ == "__main__":
    main()
