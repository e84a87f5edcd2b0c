"""Elevator bank — instance creation/deletion and dynamic populations.

A bank dispatches hall calls to the least-busy idle elevator.  Calls are
*created* as instances when requested and *deleted* when served, so this
model exercises ``create object instance`` / ``delete object instance``,
``select many ... where``, ``for each``, and conditional associations —
the dynamic half of the profile that the microwave does not touch.
"""

from __future__ import annotations

from repro.xuml import Model, ModelBuilder

#: Time for an elevator to travel one floor.
FLOOR_TIME = 2_000_000
#: Time the doors stay open at a serviced floor.
DOOR_TIME = 3_000_000


def build_elevator_model(check: bool = True) -> Model:
    """Build and check the elevator bank model."""
    builder = ModelBuilder("Elevator", "hall-call dispatching elevator bank")
    bank_component = builder.component("bank")

    bank_component.ext("LOG").bridge("info", params=[("message", "string")])

    bank = bank_component.klass("Bank", "B", number=1)
    bank.attr("bank_id", "unique_id")
    bank.attr("calls_received", "integer")
    bank.attr("calls_dropped", "integer")
    bank.identifier(1, "bank_id")
    bank.event("B1", "hall call", params=[("floor", "integer"),
                                          ("going_up", "boolean")])
    bank.event("B2", "dispatch complete")
    bank.state("Waiting", 1, activity="")
    bank.state("Dispatching", 2, activity="""
        self.calls_received = self.calls_received + 1;
        create object instance call of CA;
        call.floor = param.floor;
        call.going_up = param.going_up;
        relate call to self across R3;
        select many cars related by self->E[R1];
        chosen_found = false;
        for each car in cars
            if (not chosen_found)
                if (car.idle)
                    relate call to car across R2;
                    generate E1:E(floor: param.floor) to car;
                    chosen_found = true;
                end if;
            end if;
        end for;
        if (not chosen_found)
            self.calls_dropped = self.calls_dropped + 1;
            unrelate call from self across R3;
            delete object instance call;
        end if;
        generate B2:B() to self;
    """)
    bank.trans("Waiting", "B1", "Dispatching")
    bank.trans("Dispatching", "B2", "Waiting")
    bank.ignore("Waiting", "B2")

    elevator = bank_component.klass("Elevator", "E", number=2)
    elevator.attr("car_id", "unique_id")
    elevator.attr("current_floor", "integer", default=1)
    elevator.attr("destination", "integer", default=1)
    elevator.attr("idle", "boolean", default=True)
    elevator.attr("trips", "integer")
    elevator.attr("floors_travelled", "integer")
    elevator.identifier(1, "car_id")
    elevator.event("E1", "assigned to floor", params=[("floor", "integer")])
    elevator.event("E2", "moved one floor")
    elevator.event("E3", "arrived at destination")
    elevator.event("E4", "doors closed")
    elevator.state("Idle", 1, activity="""
        self.idle = true;
    """)
    elevator.state("Moving", 2, activity="""
        self.idle = false;
        if (self.current_floor < self.destination)
            self.current_floor = self.current_floor + 1;
            self.floors_travelled = self.floors_travelled + 1;
            generate E2:E() to self delay 2000000;
        elif (self.current_floor > self.destination)
            self.current_floor = self.current_floor - 1;
            self.floors_travelled = self.floors_travelled + 1;
            generate E2:E() to self delay 2000000;
        else
            generate E3:E() to self;
        end if;
    """)
    elevator.state("Boarding", 3, activity="""
        self.trips = self.trips + 1;
        select many served related by self->CA[R2]
            where (selected.floor == self.current_floor);
        for each call in served
            unrelate call from self across R2;
            select one owner related by call->B[R3];
            if (not_empty owner)
                unrelate call from owner across R3;
            end if;
            delete object instance call;
        end for;
        generate E4:E() to self delay 3000000;
    """)
    elevator.trans("Idle", "E1", "Arming")
    elevator.state("Arming", 4, activity="""
        self.destination = param.floor;
        self.idle = false;
        generate E2:E() to self;
    """)
    elevator.trans("Arming", "E2", "Moving")
    elevator.trans("Moving", "E2", "Moving")
    elevator.trans("Moving", "E3", "Boarding")
    elevator.trans("Boarding", "E4", "Idle")
    elevator.ignore("Idle", "E2")
    elevator.ignore("Idle", "E3")
    elevator.ignore("Idle", "E4")
    # assignments while busy are dropped by the car (the bank only picks
    # idle cars, but a race with a just-armed car is possible)
    elevator.ignore("Arming", "E1")
    elevator.ignore("Moving", "E1")
    elevator.ignore("Boarding", "E1")
    elevator.ignore("Boarding", "E2")

    call = bank_component.klass("HallCall", "CA", number=3)
    call.attr("floor", "integer")
    call.attr("going_up", "boolean")

    bank_component.assoc("R1", ("B", "dispatches", "1"),
                         ("E", "is dispatched by", "1..*"))
    bank_component.assoc("R2", ("E", "is serving", "0..1"),
                         ("CA", "serves", "*"))
    bank_component.assoc("R3", ("B", "is pending at", "0..1"),
                         ("CA", "queues", "*"))

    return builder.build(check)


def populate(simulation, cars: int = 2) -> tuple[int, list[int]]:
    """One bank plus *cars* elevators at floor 1."""
    bank = simulation.create_instance("B", bank_id=1)
    elevators = []
    for index in range(cars):
        car = simulation.create_instance("E", car_id=index + 1)
        simulation.relate(bank, car, "R1")
        elevators.append(car)
    return bank, elevators
