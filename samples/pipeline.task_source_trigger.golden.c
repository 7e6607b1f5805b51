/* Task task_source_trigger: generated from the schedule of
 * uncontrollable source `env_in_source_trigger` (10 nodes, 2 segments). */
#include "collatz.data.h"

/* state variables (token counts of state places) */
/* intra-task channel buffers */
int ch_source_raw__stage_raw;
int ch_stage_cooked__sink_cooked;
/* process variables */
int sink_y;
int source_t;
int stage_x;

void init(void) {
    ch_source_raw__stage_raw = 0;
    ch_stage_cooked__sink_cooked = 0;
}

void task_source_trigger_run(void) {
cs_env_in_source_trigger:
    READ_DATA(trigger, &source_t, 1);
    ch_source_raw__stage_raw = source_t;
    stage_x = ch_source_raw__stage_raw;
    if (((stage_x % 2) == 0)) {
        ch_stage_cooked__sink_cooked = (stage_x / 2);
        goto cs_sink_t0_read_cooked;
    } else if (!(((stage_x % 2) == 0))) {
        ch_stage_cooked__sink_cooked = ((3 * stage_x) + 1);
        goto cs_sink_t0_read_cooked;
    }
cs_sink_t0_read_cooked:
    sink_y = ch_stage_cooked__sink_cooked;
    WRITE_DATA(result, sink_y, 1);
    return;
}
