/* Task task_split_trigger: generated from the schedule of
 * uncontrollable source `env_in_split_trigger` (187 nodes, 3 segments). */
#include "mixed.data.h"

/* state variables (token counts of state places) */
int state_merge0_o__tail_i0;
int state_tail_o__divider_i;
/* intra-task channel buffers */
int ch_split_a0__merge0_a[2];
int ch_split_a0__merge0_a_head;
int ch_split_a0__merge0_a_count;
int ch_split_b0__merge0_b;
int ch_merge0_o__tail_i0[2];
int ch_merge0_o__tail_i0_head;
int ch_merge0_o__tail_i0_count;
int ch_tail_o__divider_i[2];
int ch_tail_o__divider_i_head;
int ch_tail_o__divider_i_count;
/* process variables */
int divider_v;
int merge0_v;
int split_x;
int tail_v;
int tail_s;

void init(void) {
    state_merge0_o__tail_i0 = 0;
    state_tail_o__divider_i = 0;
    ch_split_a0__merge0_a_head = 0;
    ch_split_a0__merge0_a_count = 0;
    ch_split_b0__merge0_b = 0;
    ch_merge0_o__tail_i0_head = 0;
    ch_merge0_o__tail_i0_count = 0;
    ch_tail_o__divider_i_head = 0;
    ch_tail_o__divider_i_count = 0;
}

void task_split_trigger_run(void) {
cs_env_in_split_trigger:
    READ_DATA(trigger, &split_x, 1);
    if (((split_x % 5) == 4)) {
        CH_WRITE(ch_split_a0__merge0_a, (split_x + 1), 2);
        CH_READ(ch_split_a0__merge0_a, &merge0_v, 2);
        CH_WRITE(ch_merge0_o__tail_i0, (merge0_v + 6), 1);
        state_merge0_o__tail_i0 = state_merge0_o__tail_i0 + 1;
        if (state_merge0_o__tail_i0 == 1 && state_tail_o__divider_i == 0) {
            return;
        } else if (state_merge0_o__tail_i0 == 2 && state_tail_o__divider_i == 0) {
            goto cs_tail_t0_read_i0;
        } else if (state_merge0_o__tail_i0 == 1 && state_tail_o__divider_i == 1) {
            return;
        } else if (state_merge0_o__tail_i0 == 2 && state_tail_o__divider_i == 1) {
            goto cs_tail_t0_read_i0;
        }
    } else if (!(((split_x % 5) == 4))) {
        ch_split_b0__merge0_b = (split_x * 5);
        merge0_v = ch_split_b0__merge0_b;
        CH_WRITE(ch_merge0_o__tail_i0, (merge0_v - 7), 1);
        state_merge0_o__tail_i0 = state_merge0_o__tail_i0 + 1;
        if (state_merge0_o__tail_i0 == 2 && state_tail_o__divider_i == 1) {
            goto cs_tail_t0_read_i0;
        } else if (state_merge0_o__tail_i0 == 1 && state_tail_o__divider_i == 1) {
            return;
        } else if (state_merge0_o__tail_i0 == 2 && state_tail_o__divider_i == 0) {
            goto cs_tail_t0_read_i0;
        } else if (state_merge0_o__tail_i0 == 1 && state_tail_o__divider_i == 0) {
            return;
        }
    }
cs_tail_t0_read_i0:
    CH_READ(ch_merge0_o__tail_i0, &tail_v, 2);
    tail_s = (tail_s + tail_v);
    CH_WRITE(ch_tail_o__divider_i, tail_s, 1);
    state_merge0_o__tail_i0 = state_merge0_o__tail_i0 - 2;
    state_tail_o__divider_i = state_tail_o__divider_i + 1;
    if (state_merge0_o__tail_i0 == 0 && state_tail_o__divider_i == 1) {
        return;
    } else if (state_merge0_o__tail_i0 == 0 && state_tail_o__divider_i == 2) {
        goto cs_divider_t0_read_i;
    }
cs_divider_t0_read_i:
    CH_READ(ch_tail_o__divider_i, &divider_v, 2);
    WRITE_DATA(out, (divider_v % 8), 1);
    state_tail_o__divider_i = state_tail_o__divider_i - 2;
    return;
}
